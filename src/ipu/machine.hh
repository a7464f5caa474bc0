/**
 * @file
 * The simulated IPU system executing a compiled BSP RTL simulation.
 *
 * Functionally, every process of a Partitioning becomes a tile: an
 * EvalProgram holding the union of its fibers' cones (duplicated nodes
 * and all, exactly like the generated poplar codelets of the real
 * Parendi). One simulated RTL cycle is:
 *
 *   compute   : every tile evaluates its combinational program
 *   barrier   : (modeled)
 *   exchange  : array write ports are broadcast to replicas
 *               (differential exchange, paper §5.2) and register values
 *               flow from owner tiles to reader tiles
 *   barrier   : (modeled)
 *
 * The functional execution is the rtl::ShardEngine driver (one shard
 * per tile), the same one the par engine runs: with two or more host
 * workers the whole cycle — exchange phases included — runs on a
 * persistent util::BspPool whose workers realize the BSP barriers on
 * the host, and activity guards, gang lanes and a shared pool work as
 * they do on par. This class only places the tiles and keeps the cost
 * model.
 *
 * Performance is accounted analytically per RTL cycle from the
 * partitioning and the IpuArch cost model (t_sync + t_comm + t_comp,
 * paper Eq. 1); because the simulation is full-cycle, the per-cycle
 * cost is static.
 */

#ifndef PARENDI_IPU_MACHINE_HH
#define PARENDI_IPU_MACHINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ipu/arch.hh"
#include "ipu/exchange.hh"
#include "partition/process.hh"
#include "rtl/shard_engine.hh"

namespace parendi::ipu {

/** The three BSP cost components of one simulated RTL cycle. */
struct CycleCosts
{
    double tSync = 0;
    double tCommOn = 0;
    double tCommOff = 0;
    double tComp = 0;

    double
    total() const
    {
        return tSync + tCommOn + tCommOff + tComp;
    }

    double
    tComm() const
    {
        return tCommOn + tCommOff;
    }
};

struct MachineOptions
{
    /** Model differential array exchange (§5.2); when false, remote
     *  array replicas are modeled as receiving full copies each cycle
     *  (functional behaviour is unchanged — this is the ablation). */
    bool differentialExchange = true;
};

/** One tile's placement and modeled cost (the functional program and
 *  state live in the ShardSet, indexed by the same position). */
struct Tile
{
    uint32_t id;                ///< global tile id
    uint32_t chip;
    uint64_t computeCycles = 0; ///< modeled cycles per RTL cycle
};

class IpuMachine : public rtl::ShardEngine
{
  public:
    /**
     * Place every process of @p parts on a tile and run the tiles as
     * shards of @p nl (the netlist @p fs was extracted from, shared
     * with the caller). @p threads, @p lower and @p cfg are the
     * execution knobs every sharded engine takes (see
     * rtl::ParConfig); the cost model is computed here, once.
     */
    IpuMachine(std::shared_ptr<const rtl::Netlist> nl,
               const fiber::FiberSet &fs,
               const partition::Partitioning &parts,
               uint32_t threads = 0,
               const rtl::LowerOptions &lower = rtl::LowerOptions{},
               const rtl::ParConfig &cfg = rtl::ParConfig{},
               const IpuArch &arch = IpuArch{},
               const MachineOptions &opt = MachineOptions{});

    const char *engineName() const override { return "ipu"; }

    // -- Performance model -----------------------------------------------

    const CycleCosts &cycleCosts() const { return costs; }
    double rateKHz() const { return arch.rateKHz(costs.total()); }
    const ExchangeTraffic &traffic() const { return traffic_; }

    uint32_t tilesUsed() const { return static_cast<uint32_t>(
        tiles.size()); }
    uint32_t chipsUsed() const { return chipsUsed_; }

    /** Largest per-tile memory footprint (bytes). */
    uint64_t maxTileMemBytes() const { return maxTileMem; }
    /** Largest per-tile code footprint (bytes). */
    uint64_t maxTileCodeBytes() const { return maxTileCode; }

    const IpuArch &architecture() const { return arch; }

  private:
    /** Place the tiles; returns one node set per tile. */
    std::vector<std::vector<rtl::NodeId>>
    buildTiles(const fiber::FiberSet &fs,
               const partition::Partitioning &parts);
    void accountCosts();

    IpuArch arch;
    MachineOptions opt;

    std::vector<Tile> tiles;
    uint32_t chipsUsed_ = 1;

    CycleCosts costs;
    ExchangeTraffic traffic_;
    uint64_t maxTileMem = 0;
    uint64_t maxTileCode = 0;
};

} // namespace parendi::ipu

#endif // PARENDI_IPU_MACHINE_HH
