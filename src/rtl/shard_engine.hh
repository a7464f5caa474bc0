/**
 * @file
 * ShardEngine: the one SimEngine over a ShardSet. Every partitioned
 * engine runs the same execution model — fibers placed on shards,
 * stepped as a BSP cycle — and differs only in where the fibers go:
 * ParallelInterpreter places them on host threads by a hypergraph cut,
 * ipu::IpuMachine on IPU tiles from a compiled Partitioning (and keeps
 * its cost model on the side). This driver owns what both share: the
 * netlist, the ShardSet, the worker pool (private or shared), the
 * profiler, the batch length and the cycle count, and forwards the
 * whole SimEngine surface — stepping, pokes and peeks, gang lanes,
 * activity, profiling and architectural state — to the shard set.
 *
 * A derived engine decides the node set of every shard in its
 * constructor and hands them to buildShards(), which lowers the shard
 * programs, picks the pool and evaluates once.
 */

#ifndef PARENDI_RTL_SHARD_ENGINE_HH
#define PARENDI_RTL_SHARD_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "rtl/netlist.hh"
#include "rtl/shard.hh"
#include "util/bsp_pool.hh"

namespace parendi::rtl {

/** Execution knobs of the sharded engines (par and ipu). */
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
     * When set, the engine never creates its own pool and the worker
     * width is the pool's. Sharing contract: a BspPool dispatch has
     * exactly one caller, so hosts must serialize step() calls across
     * every engine on the pool (the scheduler thread); every other
     * entry point (construction, reset(), importArch()) runs its
     * re-evaluation on the calling thread, so the pool stays free for
     * whichever engine is stepping, and enableProfiling() does not
     * install a pool wait observer.
     */
    std::shared_ptr<util::BspPool> pool;
    /** Gang simulation: replica lanes per shard state, stepped in
     *  lock-step (workers × lanes total instances). 1 = scalar. */
    uint32_t replicas = 1;
    /**
     * Measured per-fiber costs (see obs::CostProfile) weighting the
     * par engine's fiber placement in place of the static x86 model
     * (the ipu engine places by its Partitioning and ignores this).
     * Keys missing from the profile fall back to their static cost,
     * scaled into the profile's unit by the fibers both sides know.
     * Null or empty = static costs. Only read during construction.
     */
    const obs::CostProfile *costIn = nullptr;
};

class ShardEngine : public core::SimEngine
{
  public:
    // Engines live behind SimEngine pointers; none is copied.
    ShardEngine(const ShardEngine &) = delete;
    ShardEngine &operator=(const ShardEngine &) = delete;

    const Netlist &netlist() const override { return *nl_; }

    void step(size_t n = 1) override;
    void reset() override;
    uint64_t cycles() const override { return cycleCount_; }

    void poke(const std::string &input, const BitVec &value) override;
    void poke(const std::string &input, uint64_t value) override;
    BitVec peek(const std::string &output) const override;
    BitVec peekRegister(const std::string &reg) const override;
    /** Read one entry of a memory (from any replica; the exchange
     *  keeps them identical). */
    BitVec peekMemory(const std::string &mem,
                      uint64_t index) const override;
    void peekInto(const std::string &output, BitVec &out) const override;
    void peekRegisterInto(const std::string &reg,
                          BitVec &out) const override;

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

    /** Activity-guarded evaluation on every shard (see
     *  ShardSet::setActivity). */
    bool setActivity(bool on) override { return shards_.setActivity(on); }
    bool
    activityEnabled() const override
    {
        return shards_.activityEnabled();
    }

    /** Attach an obs::SuperstepProfiler sized for this engine's pool
     *  (one slot per worker, or one when sequential) and register it
     *  as the pool's barrier-wait observer — unless the pool is
     *  shared, whose observer slot cannot belong to any one engine.
     *  Always succeeds. */
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
    void exportArch(core::ArchState &out) const override;
    void importArch(const core::ArchState &st) override;

    /** The shard programs and exchange schedule now running. */
    const ShardSet &shards() const { return shards_; }

    /** Shards actually built. */
    size_t numShards() const { return shards_.size(); }

    /** Pool workers actually running (1 when sequential; can be fewer
     *  than numShards() under the hardware-concurrency cap). */
    uint32_t
    numWorkers() const
    {
        return pool_ ? pool_->threads() : 1;
    }

  protected:
    /**
     * Hold @p nl (shared, never copied) and the execution config. @p
     * threads is the requested host worker count (0/1 = sequential);
     * with a shared pool and 0 threads, the pool's width.
     */
    ShardEngine(std::shared_ptr<const Netlist> nl, uint32_t threads,
                const ParConfig &cfg);

    /** Workers this engine may use: the requested threads, capped by
     *  the shared pool's width, cfg.maxWorkers or the host's
     *  concurrency. A placement wants at most this many shards. */
    uint32_t workerBudget() const { return budget_; }

    /**
     * Lower one shard per entry of @p nodeSets (with the config's
     * lanes), take the shared pool or create a private one when at
     * least two workers have a shard each, and evaluate combinational
     * logic once so outputs are observable before the first clock
     * edge. Derived constructors call this exactly once.
     */
    void buildShards(const std::vector<std::vector<NodeId>> &nodeSets,
                     const LowerOptions &lower);

    /** The shard set, for derived engines that install kernels. */
    ShardSet &mutableShards() { return shards_; }

  private:
    std::shared_ptr<const Netlist> nl_;
    ShardSet shards_;
    size_t batch_ = 0;
    uint32_t lanes_ = 1;
    uint32_t budget_ = 0;

    // Declared before pool_: the pool holds a raw observer pointer to
    // the profiler, so the pool (destroyed first, in reverse member
    // order) must never outlive it.
    std::unique_ptr<obs::SuperstepProfiler> profiler_;
    std::shared_ptr<util::BspPool> pool_;   ///< null -> sequential
    bool poolShared_ = false;               ///< pool_ came from ParConfig
    uint64_t cycleCount_ = 0;
};

} // namespace parendi::rtl

#endif // PARENDI_RTL_SHARD_ENGINE_HH
