/**
 * @file
 * The Parendi compiler: the public entry point that lowers an RTL
 * netlist to a partitioned BSP simulation on the (simulated) IPU
 * system (paper §5). The pipeline is:
 *
 *   netlist -> fiber extraction -> 4-stage partitioning -> tile
 *   placement & exchange schedule -> IpuMachine (the tiles run as
 *   shards on the rtl::ShardEngine driver every sharded engine uses)
 *
 * The user selects the number of chips/tiles, the partitioning
 * strategy, and IPU-specific optimizations (differential array
 * exchange). A CompileReport captures the statistics the paper
 * reports per design (Table 2 and Table 3 columns).
 */

#ifndef PARENDI_CORE_COMPILER_HH
#define PARENDI_CORE_COMPILER_HH

#include <memory>
#include <utility>

#include "fiber/fiber.hh"
#include "ipu/machine.hh"
#include "partition/strategy.hh"
#include "rtl/analysis.hh"
#include "rtl/netlist.hh"
#include "rtl/opt.hh"

namespace parendi::core {

struct CompilerOptions
{
    uint32_t chips = 1;
    uint32_t tilesPerChip = 1472;
    /** Run the netlist optimizer (constant folding, CSE, identities,
     *  DCE — the Verilator "-O3" heritage) before partitioning. */
    bool optimize = true;
    /** Evaluation-program lowering applied to every engine consuming
     *  the compiled EvalProgram form (tile programs). Disable fusion
     *  or specialization here for A/B comparisons; functional
     *  behaviour is identical either way. */
    rtl::LowerOptions lower;
    partition::SingleChipStrategy single =
        partition::SingleChipStrategy::BottomUp;
    partition::MultiChipStrategy multi =
        partition::MultiChipStrategy::Pre;
    partition::MergeOptions merge;
    /** Host worker threads stepping the tiles (0/1 = sequential). */
    uint32_t threads = 0;
    /** Batch length, worker cap, shared pool and gang lanes of the
     *  functional execution — the same knobs the par engine takes. */
    rtl::ParConfig exec;
    ipu::MachineOptions machine;
    ipu::IpuArch arch;
    fiber::CostModel cost;
};

/** Per-compile statistics (Table 2 / Table 3 bookkeeping). */
struct CompileReport
{
    rtl::OptStats optStats;
    rtl::NetlistMetrics metrics;
    size_t fibers = 0;
    size_t processes = 0;
    uint32_t chips = 1;
    partition::MergeStats mergeStats;
    double compileSeconds = 0;
    uint64_t compileRssBytes = 0;   ///< peak RSS observed at compile end
    uint64_t intCutBytes = 0;       ///< on-chip exchange bytes/cycle
    uint64_t extCutBytes = 0;       ///< off-chip exchange bytes/cycle
    uint64_t maxTileMemBytes = 0;
    double duplicationRatio = 1.0;
};

/**
 * A compiled, runnable simulation. Owns the fiber decomposition, the
 * partitioning and the machine, and shares the netlist with the
 * machine.
 */
class Simulation
{
  public:
    Simulation(rtl::Netlist nl, const CompilerOptions &opt);

    ipu::IpuMachine &machine() { return *machine_; }
    const ipu::IpuMachine &machine() const { return *machine_; }
    /** Hand the machine over (it shares the netlist, so it outlives
     *  this Simulation); machine() is invalid afterwards. */
    std::unique_ptr<ipu::IpuMachine> releaseMachine()
    {
        return std::move(machine_);
    }

    const rtl::Netlist &netlist() const { return *nl_; }
    const fiber::FiberSet &fibers() const { return *fibers_; }
    const partition::Partitioning &partitioning() const { return parts_; }
    const CompileReport &report() const { return report_; }

    // Convenience forwards.
    void step(size_t n = 1) { machine_->step(n); }
    double rateKHz() const { return machine_->rateKHz(); }
    const ipu::CycleCosts &cycleCosts() const
    {
        return machine_->cycleCosts();
    }

  private:
    std::shared_ptr<const rtl::Netlist> nl_;
    std::unique_ptr<fiber::FiberSet> fibers_;
    partition::Partitioning parts_;
    std::unique_ptr<ipu::IpuMachine> machine_;
    CompileReport report_;
};

/**
 * Compile @p nl for the configured IPU system. The netlist is taken by
 * value (move it in). Calls fatal() if the design has combinational
 * loops or does not fit the machine.
 */
std::unique_ptr<Simulation> compile(rtl::Netlist nl,
                                    const CompilerOptions &opt =
                                        CompilerOptions{});

/** Current process peak RSS in bytes (compile memory reporting). */
uint64_t peakRssBytes();

} // namespace parendi::core

#endif // PARENDI_CORE_COMPILER_HH
