#include "partition/strategy.hh"

#include <algorithm>
#include <numeric>
#include <span>

#include "partition/hypergraph.hh"
#include "util/logging.hh"

namespace parendi::partition {

using fiber::FiberSet;

uint64_t
offChipCutBytes(const FiberSet &fs, const std::vector<Process> &procs)
{
    const rtl::Netlist &nl = fs.netlist();
    std::vector<int> writer_chip(nl.numRegisters(), -1);
    for (const Process &p : procs)
        for (rtl::RegId r : p.regsOwned)
            writer_chip[r] = p.chip;
    // (register, remote chip) pairs.
    std::vector<std::vector<int>> remote(nl.numRegisters());
    for (const Process &p : procs)
        for (rtl::RegId r : p.regsRead)
            if (writer_chip[r] >= 0 && writer_chip[r] != p.chip)
                remote[r].push_back(p.chip);
    uint64_t cut = 0;
    for (rtl::RegId r = 0; r < nl.numRegisters(); ++r) {
        auto &v = remote[r];
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        cut += v.size() * fs.regBytes(r);
    }
    return cut;
}

Hypergraph
fiberHypergraph(const FiberSet &fs, const std::vector<uint64_t> &fiberWeight,
                const std::vector<uint64_t> &sharedWeight)
{
    Hypergraph hg;
    hg.nodeWeight = fiberWeight;

    // Fibers of each shared node, ascending, as one flat array.
    const size_t ns = fs.numShared();
    std::vector<uint32_t> begin(ns + 1, 0);
    for (uint32_t fi = 0; fi < fs.size(); ++fi)
        fs[fi].shared.forEach([&](size_t s) { ++begin[s + 1]; });
    for (size_t s = 0; s < ns; ++s)
        begin[s + 1] += begin[s];
    std::vector<uint32_t> fibers(begin[ns]);
    std::vector<uint32_t> fill(begin.begin(), begin.end() - 1);
    for (uint32_t fi = 0; fi < fs.size(); ++fi)
        fs[fi].shared.forEach([&](size_t s) { fibers[fill[s]++] = fi; });

    // Collapse shared nodes with identical fiber sets into one
    // hyperedge with summed weight: sort by fiber set, then merge runs
    // of equal sets (edges come out in lexicographic set order).
    auto setOf = [&](uint32_t s) {
        return std::span<const uint32_t>(fibers.data() + begin[s],
                                         fibers.data() + begin[s + 1]);
    };
    std::vector<uint32_t> order;
    order.reserve(ns);
    for (uint32_t s = 0; s < ns; ++s)
        if (setOf(s).size() >= 2)
            order.push_back(s);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return std::ranges::lexicographical_compare(setOf(a), setOf(b));
    });
    for (size_t i = 0; i < order.size();) {
        std::span<const uint32_t> set = setOf(order[i]);
        uint64_t w = 0;
        size_t j = i;
        for (; j < order.size() && std::ranges::equal(set, setOf(order[j]));
             ++j)
            w += std::max<uint64_t>(sharedWeight[order[j]], 1);
        // Already ascending, distinct and at least two pins.
        hg.edgeWeight.push_back(w);
        hg.pinList.insert(hg.pinList.end(), set.begin(), set.end());
        hg.pinStart.push_back(static_cast<uint32_t>(hg.pinList.size()));
        i = j;
    }
    hg.buildIncidence();
    return hg;
}

std::vector<std::vector<uint32_t>>
placeFibers(const Hypergraph &hg, uint32_t k)
{
    HgOptions opt;
    opt.k = std::min<uint32_t>(k, static_cast<uint32_t>(hg.numNodes()));
    if (opt.k == 0)
        return {};
    std::vector<uint32_t> part = partitionHypergraph(hg, opt);
    std::vector<std::vector<uint32_t>> groups(opt.k);
    for (uint32_t v = 0; v < hg.numNodes(); ++v)
        groups[part[v]].push_back(v);
    // The balance bound does not forbid empty parts; fill each from
    // the part with the most fibers by moving its lightest one.
    for (auto &g : groups) {
        if (!g.empty())
            continue;
        auto donor = std::max_element(
            groups.begin(), groups.end(),
            [](const auto &a, const auto &b) { return a.size() < b.size(); });
        auto light = std::min_element(
            donor->begin(), donor->end(), [&](uint32_t a, uint32_t b) {
                return hg.nodeWeight[a] < hg.nodeWeight[b];
            });
        g.push_back(*light);
        donor->erase(light);
    }
    std::sort(groups.begin(), groups.end());
    return groups;
}

namespace {

/**
 * RepCut-style strategy (paper §6.4.1, "H"): hypernodes are fibers
 * weighted by their full execution time; hyperedges are shared
 * computation nodes weighted by their cost, so a balanced min-
 * connectivity partition minimizes duplicated work. One part per tile.
 */
Partitioning
hypergraphSingleChip(const FiberSet &fs, uint32_t tiles, uint64_t seed)
{
    std::vector<uint64_t> weight(fs.size());
    for (size_t i = 0; i < fs.size(); ++i)
        weight[i] = std::max<uint64_t>(fs[i].totalIpu, 1);
    Hypergraph hg = fiberHypergraph(fs, weight, fs.sharedIpu());

    HgOptions opt;
    opt.k = std::min<uint32_t>(tiles, static_cast<uint32_t>(fs.size()));
    opt.seed = seed;
    opt.epsilon = 0.10;
    std::vector<uint32_t> part = partitionHypergraph(hg, opt);

    // Materialize one process per nonempty part.
    std::vector<std::vector<uint32_t>> groups(opt.k);
    for (uint32_t fi = 0; fi < fs.size(); ++fi)
        groups[part[fi]].push_back(fi);
    Partitioning result;
    for (auto &g : groups) {
        if (g.empty())
            continue;
        Process p = Process::fromFiber(fs, g[0]);
        for (size_t i = 1; i < g.size(); ++i)
            p = Process::merged(fs, p, Process::fromFiber(fs, g[i]));
        result.processes.push_back(std::move(p));
    }
    return result;
}

/** Balance part sizes to at most @p cap processes per chip by moving
 *  the cheapest processes out of overfull chips. */
void
enforceChipCapacity(std::vector<Process> &procs, uint32_t chips,
                    uint32_t cap)
{
    std::vector<std::vector<uint32_t>> by_chip(chips);
    for (uint32_t i = 0; i < procs.size(); ++i)
        by_chip[procs[i].chip].push_back(i);
    for (uint32_t c = 0; c < chips; ++c) {
        auto &v = by_chip[c];
        while (v.size() > cap) {
            // Cheapest process moves to the emptiest chip.
            auto it = std::min_element(
                v.begin(), v.end(), [&](uint32_t a, uint32_t b) {
                    return procs[a].ipuCost < procs[b].ipuCost;
                });
            uint32_t victim = *it;
            v.erase(it);
            uint32_t dest = 0;
            for (uint32_t d = 1; d < chips; ++d)
                if (by_chip[d].size() < by_chip[dest].size())
                    dest = d;
            procs[victim].chip = static_cast<int>(dest);
            by_chip[dest].push_back(victim);
        }
    }
}

} // namespace

Partitioning
partitionDesign(const FiberSet &fs, const PartitionOptions &opt,
                MergeStats *stats)
{
    if (opt.single == SingleChipStrategy::Hypergraph) {
        if (opt.chips != 1)
            fatal("hypergraph (H) strategy supports a single chip");
        Partitioning p =
            hypergraphSingleChip(fs, opt.tilesPerChip, opt.merge.seed);
        p.checkComplete(fs);
        if (stats) {
            *stats = MergeStats{};
            stats->fibers = fs.size();
            stats->afterStage4 = p.processes.size();
            stats->stragglerIpu = fs.maxFiberIpu();
            stats->finalMakespanIpu = p.makespanIpu();
        }
        return p;
    }

    if (opt.chips <= 1 || opt.multi == MultiChipStrategy::Pre)
        return bottomUpPartition(fs, opt.chips, opt.tilesPerChip,
                                 opt.merge, stats);

    // Post / None: merge chip-obliviously to the total tile budget
    // first, then distribute processes across chips.
    MergeStats local;
    local.fibers = fs.size();
    local.stragglerIpu = fs.maxFiberIpu();
    std::vector<Process> procs = initialProcesses(fs, opt.merge);
    local.afterStage1 = procs.size();
    procs = mergeToTiles(fs, std::move(procs),
                         opt.chips * opt.tilesPerChip, opt.merge);

    if (opt.multi == MultiChipStrategy::Post) {
        // Partition the finished processes across chips, minimizing
        // the register cut (balanced by process count).
        const rtl::Netlist &nl = fs.netlist();
        Hypergraph hg;
        for (const Process &p : procs) {
            (void)p;
            hg.addNode(1);
        }
        std::vector<std::vector<uint32_t>> touching(nl.numRegisters());
        for (uint32_t pi = 0; pi < procs.size(); ++pi) {
            for (rtl::RegId r : procs[pi].regsRead)
                touching[r].push_back(pi);
            for (rtl::RegId r : procs[pi].regsOwned)
                touching[r].push_back(pi);
        }
        for (rtl::RegId r = 0; r < nl.numRegisters(); ++r)
            hg.addEdge((nl.reg(r).width + 31) / 32, touching[r]);
        hg.buildIncidence();
        HgOptions hopt;
        hopt.k = opt.chips;
        hopt.seed = opt.merge.seed;
        std::vector<uint32_t> part = partitionHypergraph(hg, hopt);
        for (uint32_t pi = 0; pi < procs.size(); ++pi)
            procs[pi].chip = static_cast<int>(part[pi]);
    } else {
        // None: deal processes out round-robin, chip-oblivious.
        for (uint32_t pi = 0; pi < procs.size(); ++pi)
            procs[pi].chip = static_cast<int>(pi % opt.chips);
    }
    enforceChipCapacity(procs, opt.chips, opt.tilesPerChip);

    Partitioning result;
    result.processes = std::move(procs);
    result.checkComplete(fs);
    local.afterStage4 = result.processes.size();
    local.finalMakespanIpu = result.makespanIpu();
    local.offChipCutBytes = offChipCutBytes(fs, result.processes);
    if (stats)
        *stats = local;
    return result;
}

} // namespace parendi::partition
