/**
 * @file
 * ParallelInterpreter: a functional multi-threaded host engine (the
 * "thousand-way parallel" execution model run at host scale). The
 * design is decomposed into fibers (paper §3.1) which are placed onto
 * one shard per worker thread by a balanced min-connectivity cut of
 * the RepCut-style fiber hypergraph (paper §5.1, §6.4.1), so shared
 * logic is duplicated, and registers are exchanged, as little as
 * possible. The shards run on the rtl::ShardEngine driver — the
 * exact BSP cycle the simulated IPU machine runs — so the engine is
 * bit-identical to the reference rtl::Interpreter at any thread count
 * by construction. This class only decides the placement; it adds
 * native kernels and cost-profile export on top.
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

#include "rtl/cgen.hh"
#include "rtl/netlist.hh"
#include "rtl/shard_engine.hh"

namespace parendi::rtl {

class ParallelInterpreter : public ShardEngine
{
  public:
    /** Takes the netlist by value (copy or move). @p threads host
     *  workers (0/1 = one shard, sequential); the shard count is
     *  min(threads, worker cap, number of fibers). */
    explicit ParallelInterpreter(Netlist nl, uint32_t threads = 0,
                                 const LowerOptions &lower =
                                     LowerOptions{},
                                 const ParConfig &cfg = ParConfig{});

    const char *engineName() const override { return "par"; }

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

    /**
     * Attribute each shard's profiled eval ticks to the fibers placed
     * on it (proportional to their static cost within the shard) and
     * export the result keyed by stable fiber names. Requires an
     * attached profiler that has sampled at least one cycle.
     */
    bool collectCostProfile(obs::CostProfile &out) const override;

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

  private:
    /** One fiber's cost-profile identity. */
    struct FiberCost
    {
        double staticCost;          ///< x86 cost-model weight
        std::string key;            ///< stable CostProfile key
    };

    std::vector<FiberCost> fibers_;
    std::vector<std::vector<uint32_t>> assignment_;  ///< fibers per shard
    Placement placement_;
    bool native_ = false;                   ///< cgen kernels installed
};

} // namespace parendi::rtl

#endif // PARENDI_X86_PARALLEL_HH
