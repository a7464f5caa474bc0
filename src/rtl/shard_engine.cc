#include "rtl/shard_engine.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace parendi::rtl {

ShardEngine::ShardEngine(std::shared_ptr<const Netlist> nl,
                         uint32_t threads, const ParConfig &cfg)
    : nl_(std::move(nl)), batch_(cfg.batch),
      lanes_(cfg.replicas), pool_(cfg.pool),
      poolShared_(cfg.pool != nullptr)
{
    // Workers track the host's real parallelism (unless the config
    // pins a count): workers beyond the core count buy no concurrency
    // and only add exchange traffic and barrier parties, and every
    // width computes bit-identical results. A shared pool pins the
    // width instead: its worker count is the parallelism available.
    const uint32_t maxw = cfg.pool ? cfg.pool->threads()
        : cfg.maxWorkers           ? cfg.maxWorkers
                                   : util::hostConcurrency();
    if (cfg.pool && threads == 0)
        threads = cfg.pool->threads();
    budget_ = std::min(threads, maxw);
}

void
ShardEngine::buildShards(const std::vector<std::vector<NodeId>> &nodeSets,
                         const LowerOptions &lower)
{
    shards_ = ShardSet(*nl_, nodeSets, lower, lanes_);
    if (!poolShared_) {
        const uint32_t workers = static_cast<uint32_t>(
            std::min<size_t>(budget_, shards_.size()));
        if (workers >= 2)
            pool_ = std::make_shared<util::BspPool>(workers);
    }
    shards_.evalAll();
}

void
ShardEngine::step(size_t n)
{
    // Fused batched dispatch on the pool; without one, stepCycles runs
    // the in-place cycle on the caller.
    size_t done = 0;
    while (done < n) {
        const size_t k =
            batch_ ? std::min(batch_, n - done) : n - done;
        shards_.stepCycles(pool_.get(), k);
        done += k;
        cycleCount_ += k;
    }
}

void
ShardEngine::reset()
{
    shards_.reset();
    cycleCount_ = 0;
}

void
ShardEngine::poke(const std::string &input, const BitVec &value)
{
    shards_.poke(input, value);
}

void
ShardEngine::poke(const std::string &input, uint64_t value)
{
    shards_.poke(input, value);
}

BitVec
ShardEngine::peek(const std::string &output) const
{
    return shards_.peek(output);
}

BitVec
ShardEngine::peekRegister(const std::string &reg) const
{
    return shards_.peekRegister(reg);
}

BitVec
ShardEngine::peekMemory(const std::string &mem, uint64_t index) const
{
    return shards_.peekMemory(mem, index);
}

void
ShardEngine::peekInto(const std::string &output, BitVec &out) const
{
    shards_.peekInto(output, out);
}

void
ShardEngine::peekRegisterInto(const std::string &reg, BitVec &out) const
{
    shards_.peekRegisterInto(reg, out);
}

void
ShardEngine::pokeLane(const std::string &input, const BitVec &value,
                      uint32_t lane)
{
    shards_.pokeLane(input, value, lane);
}

void
ShardEngine::pokeLane(const std::string &input, uint64_t value,
                      uint32_t lane)
{
    PortId id = nl_->findInput(input);
    if (id == nl_->numInputs())
        fatal("no input port named %s", input.c_str());
    shards_.pokeLane(input, BitVec(nl_->input(id).width, value), lane);
}

BitVec
ShardEngine::peekLane(const std::string &output, uint32_t lane) const
{
    return shards_.peekLane(output, lane);
}

BitVec
ShardEngine::peekRegisterLane(const std::string &reg,
                              uint32_t lane) const
{
    return shards_.peekRegisterLane(reg, lane);
}

BitVec
ShardEngine::peekMemoryLane(const std::string &mem, uint64_t index,
                            uint32_t lane) const
{
    return shards_.peekMemoryLane(mem, index, lane);
}

bool
ShardEngine::enableProfiling(const obs::ProfileOptions &opt)
{
    if (profiler_)
        return true;
    profiler_ = std::make_unique<obs::SuperstepProfiler>(
        numWorkers(), shards_.size(), opt);
    shards_.setProfiler(profiler_.get());
    // A shared pool serves many engines; its wait observer slot
    // cannot belong to any one of them.
    if (pool_ && !poolShared_)
        pool_->setWaitObserver(profiler_.get());
    return true;
}

void
ShardEngine::exportArch(core::ArchState &out) const
{
    shards_.exportArch(out);
    out.cycles = cycleCount_;
}

void
ShardEngine::importArch(const core::ArchState &st)
{
    shards_.importArch(st);
    cycleCount_ = st.cycles;
}

} // namespace parendi::rtl
