#include "x86/parallel.hh"

#include <algorithm>
#include <cmath>
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

ParallelInterpreter::ParallelInterpreter(Netlist design,
                                         uint32_t threads,
                                         const LowerOptions &lower,
                                         const ParConfig &cfg)
    : ShardEngine(std::make_shared<const Netlist>(std::move(design)),
                  threads, cfg)
{
    const Netlist &nl = netlist();
    fiber::FiberSet fs(nl);
    // One shard per usable worker: the partition is bit-exact at any
    // shard count, so requesting 8 threads on a 2-core host simply
    // yields the 2-shard placement.
    size_t nshards = std::max<size_t>(
        1, std::min<size_t>(workerBudget(), fs.size()));

    // Keep each fiber's static cost and stable name for cost-profile
    // export; the placement itself runs on the fiber hypergraph.
    fibers_.resize(fs.size());
    std::vector<uint64_t> staticW(fs.size());
    for (size_t fi = 0; fi < fs.size(); ++fi) {
        fibers_[fi].staticCost = static_cast<double>(fs[fi].totalX86);
        fibers_[fi].key = fiberCostKey(nl, fs[fi]);
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
    const size_t n = nl.numNodes();
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

    buildShards(nodeSets, lower);
    placement_.shards = numShards();
    for (size_t s = 0; s < numShards(); ++s)
        placement_.shardInstrs += shards().program(s).instrs.size();
    for (const ShardSet::RegMessage &m : shards().regMessages())
        placement_.exchangeWords += m.words;
}

size_t
ParallelInterpreter::enableNativeKernels(const CgenOptions &opt)
{
    size_t attached = cgenAttachShards(mutableShards(), opt);
    native_ = attached == numShards() && attached > 0;
    return attached;
}

bool
ParallelInterpreter::collectCostProfile(obs::CostProfile &out) const
{
    if (!profiler())
        return false;
    const std::vector<obs::ShardEvalStat> &stats = profiler()->shardEval();
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
