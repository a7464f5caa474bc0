/**
 * @file
 * ParallelInterpreter: a functional multi-threaded host engine (the
 * "thousand-way parallel" execution model run at host scale). The
 * design is decomposed into fibers (paper §3.1) which are placed onto
 * one shard per worker thread by a balanced min-connectivity cut of
 * the RepCut-style fiber hypergraph (paper §5.1, §6.4.1), so shared
 * logic is duplicated, and registers are exchanged, as little as
 * possible. The shards execute as an rtl::ShardSet on a persistent
 * util::BspPool, i.e. the exact BSP cycle the simulated IPU machine
 * runs, so the engine is bit-identical to the reference
 * rtl::Interpreter at any thread count by construction.
 *
 * Declared in namespace parendi::rtl (it is an RTL engine), built in
 * parendi_x86 because the fiber decomposition lives above parendi_rtl
 * in the library stack.
 */

#ifndef PARENDI_X86_PARALLEL_HH
#define PARENDI_X86_PARALLEL_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/engine.hh"
#include "rtl/cgen.hh"
#include "rtl/netlist.hh"
#include "rtl/shard.hh"
#include "util/bsp_pool.hh"

namespace parendi::rtl {

/** Execution knobs of the parallel host engine. */
struct ParConfig
{
    /** Cycles per pool dispatch: step(n) is split into batches of
     *  this many cycles, each one pool epoch with the in-dispatch
     *  barrier between cycles. 0 = the whole step(n) call is one
     *  batch. */
    size_t batch = 0;
    /**
     * Cap on shards and pool workers. 0 (default) caps at the host's
     * hardware concurrency — shards beyond the physical cores buy no
     * concurrency and only add cross-shard exchange traffic and
     * barrier parties, and any shard/worker count computes
     * bit-identical results, so oversubscribing buys nothing. Tests
     * and A/B benches that *want* a specific partition width or real
     * thread contention pass an explicit cap.
     */
    uint32_t maxWorkers = 0;
    /**
     * Externally owned worker pool, shared across engines — the
     * serving layer's fair-share scheduler steps many sessions on one
     * pool instead of paying N pools' worth of idle worker threads.
     * When set, the engine never creates its own pool and the shard
     * count adapts to the pool's width. Sharing contract: a BspPool
     * dispatch has exactly one caller, so hosts must serialize step()
     * calls across every engine on the pool (the scheduler thread);
     * every other entry point (construction, reset(), restore())
     * runs its re-evaluation on the calling thread, so the pool stays
     * free for whichever engine is stepping, and enableProfiling()
     * does not install a pool wait observer.
     */
    std::shared_ptr<util::BspPool> pool;
    /** Gang simulation: replica lanes per shard state, stepped in
     *  lock-step (threads × lanes total instances). 1 = scalar. */
    uint32_t replicas = 1;
    /**
     * Measured per-fiber costs (see obs::CostProfile) weighting the
     * initial placement in place of the static x86 model. Keys
     * missing from the profile fall back to their static cost, scaled
     * into the profile's unit by the fibers both sides know. Null or
     * empty = static costs. Only read during construction.
     */
    const obs::CostProfile *costIn = nullptr;
};

class ParallelInterpreter : public core::SimEngine
{
  public:
    /** Takes the netlist by value (copy or move). @p threads host
     *  workers (0/1 = one shard, sequential); the shard count is
     *  min(threads, number of fibers). */
    explicit ParallelInterpreter(Netlist nl, uint32_t threads = 0,
                                 const LowerOptions &lower =
                                     LowerOptions{},
                                 const ParConfig &cfg = ParConfig{});

    // The shard set points at the netlist member; the object must
    // stay put.
    ParallelInterpreter(const ParallelInterpreter &) = delete;
    ParallelInterpreter &operator=(const ParallelInterpreter &) = delete;

    const char *engineName() const override { return "par"; }
    const Netlist &netlist() const override { return nl_; }

    void step(size_t n = 1) override;
    void reset() override;
    uint64_t cycles() const override { return cycleCount_; }

    void poke(const std::string &input, const BitVec &value) override;
    void poke(const std::string &input, uint64_t value) override;
    BitVec peek(const std::string &output) const override;
    BitVec peekRegister(const std::string &reg) const override;
    BitVec peekMemory(const std::string &mem,
                      uint64_t index) const override;
    void peekInto(const std::string &output, BitVec &out) const override;
    void peekRegisterInto(const std::string &reg,
                          BitVec &out) const override;

    // Gang lane access (see SimEngine); forwards to the shard set.
    uint32_t replicas() const override { return shards_.lanes(); }
    void pokeLane(const std::string &input, const BitVec &value,
                  uint32_t lane) override;
    void pokeLane(const std::string &input, uint64_t value,
                  uint32_t lane) override;
    BitVec peekLane(const std::string &output,
                    uint32_t lane) const override;
    BitVec peekRegisterLane(const std::string &reg,
                            uint32_t lane) const override;
    BitVec peekMemoryLane(const std::string &mem, uint64_t index,
                          uint32_t lane) const override;

    /**
     * Compile every shard program to a native kernel (one TU, one
     * compiler invocation; see rtl/cgen) and install them on the shard
     * states, so the BSP evaluate phase runs emitted code while
     * commit/latch/exchange stay on the deterministic host paths.
     * Returns the number of shards running natively: all, or 0 after a
     * warning when no toolchain is available (the engine keeps working
     * on the fused interpreter).
     */
    size_t enableNativeKernels(const CgenOptions &opt = CgenOptions{});

    /** True once enableNativeKernels() has succeeded. */
    bool native() const { return native_; }

    /** Activity-guarded evaluation on every shard (see
     *  ShardSet::setActivity). */
    bool setActivity(bool on) override { return shards_.setActivity(on); }
    bool
    activityEnabled() const override
    {
        return shards_.activityEnabled();
    }

    /**
     * Attribute each shard's profiled eval ticks to the fibers placed
     * on it (proportional to their static cost within the shard) and
     * export the result keyed by stable fiber names. Requires an
     * attached profiler that has sampled at least one cycle.
     */
    bool collectCostProfile(obs::CostProfile &out) const override;

    /** Attach an obs::SuperstepProfiler sized for this engine's pool
     *  (one slot per shard worker, or one when sequential) and register
     *  it as the pool's barrier-wait observer. Always succeeds. */
    bool enableProfiling(const obs::ProfileOptions &opt =
                             obs::ProfileOptions{}) override;
    obs::SuperstepProfiler *profiler() override
    {
        return profiler_.get();
    }
    const obs::SuperstepProfiler *
    profiler() const override
    {
        return profiler_.get();
    }

    /** Canonical architectural state (see SimEngine / src/ckpt).
     *  Import runs sequentially (shared-pool contract). */
    void
    exportArch(core::ArchState &out) const override
    {
        shards_.exportArch(out);
        out.cycles = cycleCount_;
    }
    void
    importArch(const core::ArchState &st) override
    {
        shards_.importArch(st);
        cycleCount_ = st.cycles;
    }

    /** Shards actually built (<= requested threads). */
    size_t numShards() const { return shards_.size(); }

    /** Pool workers actually running (1 when sequential; can be fewer
     *  than numShards() under the hardware-concurrency cap). */
    uint32_t
    numWorkers() const
    {
        return pool_ ? pool_->threads() : 1;
    }

    /** Quality of the current fiber placement. */
    struct Placement
    {
        size_t shards = 0;
        uint64_t shardNodes = 0;    ///< Σ nodes over the shards
        uint64_t unionNodes = 0;    ///< distinct nodes over the shards
        uint64_t shardInstrs = 0;   ///< Σ lowered shard instructions
        /** Register words the exchange moves per cycle, per lane. */
        uint64_t exchangeWords = 0;

        /** Shared logic computed more than once: Σ shard nodes over
         *  distinct nodes (1 = nothing duplicated). */
        double
        duplication() const
        {
            return unionNodes ? static_cast<double>(shardNodes) /
                    static_cast<double>(unionNodes)
                              : 1.0;
        }
    };
    const Placement &placement() const { return placement_; }

    /** The shard programs and exchange schedule now running. */
    const ShardSet &shards() const { return shards_; }

  private:
    /** One fiber's cost-profile identity. */
    struct FiberCost
    {
        double staticCost;          ///< x86 cost-model weight
        std::string key;            ///< stable CostProfile key
    };

    Netlist nl_;
    ShardSet shards_;
    size_t batch_ = 0;

    std::vector<FiberCost> fibers_;
    std::vector<std::vector<uint32_t>> assignment_;  ///< fibers per shard
    Placement placement_;

    // Declared before pool_: the pool holds a raw observer pointer to
    // the profiler, so the pool (destroyed first, in reverse member
    // order) must never outlive it.
    std::unique_ptr<obs::SuperstepProfiler> profiler_;
    std::shared_ptr<util::BspPool> pool_;   ///< null -> sequential
    bool poolShared_ = false;               ///< pool_ came from ParConfig
    uint64_t cycleCount_ = 0;
    bool native_ = false;                   ///< cgen kernels installed
};

} // namespace parendi::rtl

#endif // PARENDI_X86_PARALLEL_HH
