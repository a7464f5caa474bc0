#include "x86/parallel.hh"

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "fiber/fiber.hh"
#include "obs/costprofile.hh"
#include "partition/hypergraph.hh"
#include "partition/strategy.hh"
#include "util/bitset.hh"
#include "util/logging.hh"

namespace parendi::rtl {

namespace {

/** Stable CostProfile key of one fiber: named by what it computes, so
 *  a profile survives recompilation and node renumbering. */
std::string
fiberCostKey(const Netlist &nl, const fiber::Fiber &f)
{
    switch (f.kind) {
      case fiber::SinkKind::Register:
        return "reg:" + nl.reg(f.target).name;
      case fiber::SinkKind::MemoryWrite: {
        const Memory &m = nl.mem(f.target);
        for (size_t p = 0; p < m.writePorts.size(); ++p)
            if (m.writePorts[p] == f.sink)
                return "memw:" + m.name + ":" + std::to_string(p);
        return "memw:" + m.name + ":?";
      }
      case fiber::SinkKind::PortOutput:
        return "out:" + nl.output(f.target).name;
    }
    return "?";
}

/** Place the fibers of @p graph onto @p nshards shards
 *  (partition::placeFibers) with @p weights, in any unit, as the fiber
 *  node weights. */
std::vector<std::vector<uint32_t>>
placeWeighted(partition::Hypergraph &graph,
              const std::vector<double> &weights, size_t nshards)
{
    // Node weights are integers: rescale so they sum to 2^32, which
    // keeps the ratios of costs given in any unit.
    double sum = 0;
    for (double w : weights)
        sum += w;
    const double scale = sum > 0 ? 4294967296.0 / sum : 1.0;
    for (size_t fi = 0; fi < weights.size(); ++fi)
        graph.nodeWeight[fi] = static_cast<uint64_t>(
            std::llround(std::max(0.0, weights[fi]) * scale));
    return partition::placeFibers(graph, static_cast<uint32_t>(nshards));
}

} // namespace

ParallelInterpreter::ParallelInterpreter(Netlist netlist,
                                         uint32_t threads,
                                         const LowerOptions &lower,
                                         const ParConfig &cfg)
    : nl_(std::move(netlist)), batch_(cfg.batch)
{
    fiber::FiberSet fs(nl_);
    // The shard count adapts to the host's real parallelism (unless
    // the config pins a worker count): shards beyond the core count
    // buy no concurrency and only add cross-shard exchange traffic
    // and barrier parties. The partition is bit-exact at any shard
    // count, so requesting 8 threads on a 2-core host simply yields
    // the 2-shard placement. A shared pool pins the width instead: the
    // pool's worker count is the parallelism actually available.
    const uint32_t maxw = cfg.pool ? cfg.pool->threads()
        : cfg.maxWorkers
        ? cfg.maxWorkers
        : std::max(1u, std::thread::hardware_concurrency());
    if (cfg.pool && threads == 0)
        threads = cfg.pool->threads();
    size_t nshards = std::max<size_t>(
        1, std::min<size_t>(std::min<uint32_t>(threads, maxw),
                            fs.size()));

    // Keep each fiber's static cost and stable name for cost-profile
    // export; the placement itself runs on the fiber hypergraph.
    fibers_.resize(fs.size());
    std::vector<uint64_t> staticW(fs.size());
    for (size_t fi = 0; fi < fs.size(); ++fi) {
        fibers_[fi].staticCost = static_cast<double>(fs[fi].totalX86);
        fibers_[fi].key = fiberCostKey(nl_, fs[fi]);
        staticW[fi] = fs[fi].totalX86;
    }
    partition::Hypergraph graph =
        partition::fiberHypergraph(fs, staticW, fs.sharedX86());

    // Placement weights: the static x86 cost, or — when a measured
    // profile is supplied — each fiber's recorded cost, with unseen
    // fibers falling back to their static cost rescaled into the
    // profile's unit (the ratio is taken over the fibers both sides
    // know).
    std::vector<double> weights(fibers_.size());
    for (size_t fi = 0; fi < fibers_.size(); ++fi)
        weights[fi] = fibers_[fi].staticCost;
    if (cfg.costIn && !cfg.costIn->empty()) {
        double sumMeasured = 0, sumStatic = 0;
        for (const FiberCost &f : fibers_) {
            double m = cfg.costIn->lookup(f.key, -1.0);
            if (m >= 0) {
                sumMeasured += m;
                sumStatic += f.staticCost;
            }
        }
        const double scale = (sumMeasured > 0 && sumStatic > 0)
            ? sumMeasured / sumStatic
            : 1.0;
        for (size_t fi = 0; fi < fibers_.size(); ++fi) {
            double m = cfg.costIn->lookup(fibers_[fi].key, -1.0);
            weights[fi] = m >= 0 ? m : fibers_[fi].staticCost * scale;
        }
    }

    assignment_ = placeWeighted(graph, weights, nshards);
    // A design without sinks still runs on one (empty) shard.
    if (assignment_.empty())
        assignment_.resize(1);

    // Each shard's node set is the ascending union of its fibers'
    // cones: mark the cones in a bitset, then collect the set bits.
    const size_t n = nl_.numNodes();
    DenseBitset all(n);
    std::vector<std::vector<NodeId>> nodeSets(assignment_.size());
    for (size_t s = 0; s < assignment_.size(); ++s) {
        DenseBitset mark(n);
        for (uint32_t fi : assignment_[s])
            for (NodeId id : fs[fi].cone)
                mark.set(id);
        nodeSets[s].reserve(mark.count());
        mark.forEach([&](size_t id) {
            nodeSets[s].push_back(static_cast<NodeId>(id));
        });
        placement_.shardNodes += nodeSets[s].size();
        all |= mark;
    }
    placement_.unionNodes = all.count();

    shards_ = ShardSet(nl_, nodeSets, lower, cfg.replicas);
    placement_.shards = shards_.size();
    for (size_t s = 0; s < shards_.size(); ++s)
        placement_.shardInstrs += shards_.program(s).instrs.size();
    for (const ShardSet::RegMessage &m : shards_.regMessages())
        placement_.exchangeWords += m.words;

    if (cfg.pool) {
        pool_ = cfg.pool;
        poolShared_ = true;
    } else {
        const uint32_t workers = static_cast<uint32_t>(
            std::min<size_t>(shards_.size(), maxw));
        if (threads >= 2 && shards_.size() >= 2 && workers >= 2)
            pool_ = std::make_unique<util::BspPool>(workers);
    }
    // Evaluate combinational logic once so outputs are observable
    // before the first clock edge.
    shards_.evalAll();
}

void
ParallelInterpreter::step(size_t n)
{
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
ParallelInterpreter::reset()
{
    shards_.reset();
    cycleCount_ = 0;
}

void
ParallelInterpreter::poke(const std::string &input, const BitVec &value)
{
    shards_.poke(input, value);
}

void
ParallelInterpreter::poke(const std::string &input, uint64_t value)
{
    shards_.poke(input, value);
}

BitVec
ParallelInterpreter::peek(const std::string &output) const
{
    return shards_.peek(output);
}

BitVec
ParallelInterpreter::peekRegister(const std::string &reg) const
{
    return shards_.peekRegister(reg);
}

BitVec
ParallelInterpreter::peekMemory(const std::string &mem,
                                uint64_t index) const
{
    return shards_.peekMemory(mem, index);
}

void
ParallelInterpreter::peekInto(const std::string &output,
                              BitVec &out) const
{
    shards_.peekInto(output, out);
}

void
ParallelInterpreter::peekRegisterInto(const std::string &reg,
                                      BitVec &out) const
{
    shards_.peekRegisterInto(reg, out);
}

void
ParallelInterpreter::pokeLane(const std::string &input,
                              const BitVec &value, uint32_t lane)
{
    shards_.pokeLane(input, value, lane);
}

void
ParallelInterpreter::pokeLane(const std::string &input, uint64_t value,
                              uint32_t lane)
{
    PortId id = nl_.findInput(input);
    if (id == nl_.numInputs())
        fatal("no input port named %s", input.c_str());
    shards_.pokeLane(input, BitVec(nl_.input(id).width, value), lane);
}

BitVec
ParallelInterpreter::peekLane(const std::string &output,
                              uint32_t lane) const
{
    return shards_.peekLane(output, lane);
}

BitVec
ParallelInterpreter::peekRegisterLane(const std::string &reg,
                                      uint32_t lane) const
{
    return shards_.peekRegisterLane(reg, lane);
}

BitVec
ParallelInterpreter::peekMemoryLane(const std::string &mem,
                                    uint64_t index, uint32_t lane) const
{
    return shards_.peekMemoryLane(mem, index, lane);
}

bool
ParallelInterpreter::enableProfiling(const obs::ProfileOptions &opt)
{
    if (profiler_)
        return true;
    uint32_t workers = pool_ ? pool_->threads() : 1;
    profiler_ = std::make_unique<obs::SuperstepProfiler>(
        workers, shards_.size(), opt);
    shards_.setProfiler(profiler_.get());
    // A shared pool serves many engines; its wait observer slot
    // cannot belong to any one of them.
    if (pool_ && !poolShared_)
        pool_->setWaitObserver(profiler_.get());
    return true;
}

size_t
ParallelInterpreter::enableNativeKernels(const CgenOptions &opt)
{
    size_t attached = cgenAttachShards(shards_, opt);
    native_ = attached == shards_.size() && attached > 0;
    return attached;
}

bool
ParallelInterpreter::collectCostProfile(obs::CostProfile &out) const
{
    if (!profiler_)
        return false;
    const std::vector<obs::ShardEvalStat> &stats = profiler_->shardEval();
    uint64_t sum = 0;
    for (const obs::ShardEvalStat &st : stats)
        sum += st.ticks;
    if (sum == 0)
        return false;
    // Each shard's measured eval ticks are attributed to its fibers
    // proportional to their static cost — the finest attribution the
    // per-shard straggler stat supports. Shards the profiler never
    // sampled keep their static weights (placement rescales weights to
    // a common total, so only their ratios matter).
    for (size_t s = 0; s < assignment_.size(); ++s) {
        double staticSum = 0;
        for (uint32_t fi : assignment_[s])
            staticSum += fibers_[fi].staticCost;
        const uint64_t ticks = s < stats.size() ? stats[s].ticks : 0;
        for (uint32_t fi : assignment_[s]) {
            double share = staticSum > 0
                ? fibers_[fi].staticCost / staticSum
                : 1.0 / static_cast<double>(assignment_[s].size());
            out.set(fibers_[fi].key,
                    ticks > 0
                        ? std::max(1.0,
                                   static_cast<double>(ticks) * share)
                        : std::max(1.0, fibers_[fi].staticCost));
        }
    }
    return true;
}

} // namespace parendi::rtl
