/**
 * @file
 * Tests for the partitioning stack: LPT scheduling, the multilevel
 * hypergraph partitioner, the 4-stage bottom-up merge, and the
 * single-/multi-chip strategies. Invariants checked: completeness
 * (every fiber in exactly one process), balance, memory limits,
 * stage-3 straggler preservation, and strategy orderings from the
 * paper (Pre beats None, partitioned beats oblivious cut).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "designs/designs.hh"
#include "partition/hypergraph.hh"
#include "partition/makespan.hh"
#include "partition/merge.hh"
#include "partition/strategy.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/strcat.hh"

using namespace parendi;
using namespace parendi::partition;
using fiber::FiberSet;

// ---- LPT ---------------------------------------------------------------

TEST(Lpt, BalancesKnownCase)
{
    // Classic LPT example: jobs {7,6,5,4,3,2} on 3 machines -> 9.
    Schedule s = lptSchedule({7, 6, 5, 4, 3, 2}, 3);
    EXPECT_EQ(s.makespan, 9u);
}

TEST(Lpt, SingleBinSumsEverything)
{
    Schedule s = lptSchedule({5, 1, 9}, 1);
    EXPECT_EQ(s.makespan, 15u);
}

TEST(Lpt, WithinFourThirdsOfLowerBound)
{
    Rng rng(42);
    for (int iter = 0; iter < 10; ++iter) {
        std::vector<uint64_t> costs;
        for (int i = 0; i < 200; ++i)
            costs.push_back(1 + rng.below(1000));
        for (uint32_t bins : {2u, 7u, 16u, 64u}) {
            Schedule s = lptSchedule(costs, bins);
            uint64_t lb = makespanLowerBound(costs, bins);
            EXPECT_LE(s.makespan, (4 * lb) / 3 + 1);
            EXPECT_GE(s.makespan, lb);
        }
    }
}

TEST(Lpt, AssignsEveryItem)
{
    Schedule s = lptSchedule({3, 0, 5, 0}, 2);
    EXPECT_EQ(s.binOf.size(), 4u);
    for (uint32_t b : s.binOf)
        EXPECT_LT(b, 2u);
    EXPECT_THROW(lptSchedule({1}, 0), FatalError);
}

// ---- Hypergraph ----------------------------------------------------------

namespace {

/** Two dense clusters joined by a single light edge. */
Hypergraph
twoClusters(uint32_t per_side)
{
    Hypergraph hg;
    for (uint32_t i = 0; i < 2 * per_side; ++i)
        hg.addNode(10);
    Rng rng(7);
    for (uint32_t side = 0; side < 2; ++side) {
        uint32_t base = side * per_side;
        for (uint32_t e = 0; e < per_side * 3; ++e) {
            std::vector<uint32_t> pins;
            for (int p = 0; p < 3; ++p)
                pins.push_back(base + static_cast<uint32_t>(
                    rng.below(per_side)));
            hg.addEdge(20, pins);
        }
    }
    hg.addEdge(1, {0, per_side}); // the only cross edge
    hg.buildIncidence();
    return hg;
}

} // namespace

TEST(Hypergraph, FindsTheObviousCut)
{
    Hypergraph hg = twoClusters(32);
    HgOptions opt;
    opt.k = 2;
    std::vector<uint32_t> part = partitionHypergraph(hg, opt);
    EXPECT_LE(cutCost(hg, part), 25u); // ideally 1; allow slack
    // Balance: each side within (1+eps) of half.
    uint64_t w0 = 0, w1 = 0;
    for (size_t v = 0; v < hg.numNodes(); ++v)
        (part[v] ? w1 : w0) += hg.nodeWeight[v];
    uint64_t limit = static_cast<uint64_t>(
        hg.totalNodeWeight() / 2 * (1 + opt.epsilon)) + 1;
    EXPECT_LE(w0, limit);
    EXPECT_LE(w1, limit);
}

TEST(Hypergraph, RespectsBalanceForLargeK)
{
    Hypergraph hg;
    Rng rng(3);
    for (int i = 0; i < 300; ++i)
        hg.addNode(1 + rng.below(5));
    for (int e = 0; e < 600; ++e) {
        std::vector<uint32_t> pins;
        for (int p = 0; p < 2 + static_cast<int>(rng.below(3)); ++p)
            pins.push_back(static_cast<uint32_t>(rng.below(300)));
        hg.addEdge(1 + rng.below(4), pins);
    }
    hg.buildIncidence();
    HgOptions opt;
    opt.k = 24;
    opt.epsilon = 0.30;
    std::vector<uint32_t> part = partitionHypergraph(hg, opt);
    std::vector<uint64_t> pw(opt.k, 0);
    for (size_t v = 0; v < hg.numNodes(); ++v) {
        ASSERT_LT(part[v], opt.k);
        pw[part[v]] += hg.nodeWeight[v];
    }
    // LPT initial partition plus gain-only moves keeps balance.
    uint64_t limit = static_cast<uint64_t>(
        static_cast<double>(hg.totalNodeWeight()) / opt.k *
        (1 + opt.epsilon)) + 1;
    for (uint64_t w : pw)
        EXPECT_LE(w, limit);
}

TEST(Hypergraph, PlaceFibersGivesNonEmptyCanonicalGroups)
{
    // Every fiber lands in exactly one group, no group is empty even
    // when k reaches the node count, and groups come ordered by first
    // fiber so equal placements compare equal.
    Hypergraph hg = twoClusters(8);
    for (uint32_t k : {1u, 2u, 5u, 16u, 40u}) {
        std::vector<std::vector<uint32_t>> groups = placeFibers(hg, k);
        ASSERT_EQ(groups.size(), std::min<size_t>(k, hg.numNodes()));
        std::vector<int> seen(hg.numNodes(), 0);
        for (size_t g = 0; g < groups.size(); ++g) {
            ASSERT_FALSE(groups[g].empty()) << "k=" << k;
            ASSERT_TRUE(std::is_sorted(groups[g].begin(), groups[g].end()));
            if (g > 0) {
                ASSERT_LT(groups[g - 1][0], groups[g][0]);
            }
            for (uint32_t v : groups[g])
                ++seen[v];
        }
        for (int c : seen)
            ASSERT_EQ(c, 1) << "k=" << k;
        EXPECT_EQ(placeFibers(hg, k), groups) << "k=" << k;
    }
}

TEST(Hypergraph, ConnectivityCostSanity)
{
    Hypergraph hg;
    for (int i = 0; i < 4; ++i)
        hg.addNode(1);
    hg.addEdge(5, {0, 1, 2, 3});
    hg.buildIncidence();
    EXPECT_EQ(connectivityCost(hg, {0, 0, 0, 0}, 2), 0u);
    EXPECT_EQ(connectivityCost(hg, {0, 0, 1, 1}, 2), 5u);
    EXPECT_EQ(connectivityCost(hg, {0, 1, 2, 3}, 4), 15u);
    EXPECT_EQ(cutCost(hg, {0, 0, 0, 0}), 0u);
    EXPECT_EQ(cutCost(hg, {0, 1, 0, 0}), 5u);
}

TEST(Hypergraph, EdgeCases)
{
    Hypergraph hg;
    EXPECT_TRUE(partitionHypergraph(hg, HgOptions{}).empty());
    hg.addNode(3);
    hg.buildIncidence();
    HgOptions one;
    one.k = 1;
    EXPECT_EQ(partitionHypergraph(hg, one), std::vector<uint32_t>{0});
    // Single-pin edges are dropped.
    Hypergraph hg2;
    hg2.addNode(1);
    EXPECT_FALSE(hg2.addEdge(1, {0, 0, 0}));
}

// ---- Bottom-up merge -----------------------------------------------------

namespace {

struct Decomposed
{
    rtl::Netlist nl;
    std::unique_ptr<FiberSet> fs;

    explicit Decomposed(rtl::Netlist n) : nl(std::move(n))
    {
        fs = std::make_unique<FiberSet>(nl);
    }
};

} // namespace

TEST(Merge, Stage1MergesLargeArraySharers)
{
    // A big array (>= threshold) read by several fibers.
    rtl::Design d("bigarr");
    rtl::MemId big = d.memory("big", 64, 4096); // 32 KiB
    auto idx = d.reg("idx", 12, 0);
    d.next(idx, d.read(idx) + d.lit(12, 1));
    for (int i = 0; i < 4; ++i) {
        auto r = d.reg(strCat("r", i), 64, 0);
        d.next(r, d.read(r) ^ d.memRead(big, d.read(idx)));
    }
    Decomposed dec(d.finish());

    MergeOptions opt;
    opt.largeArrayBytes = 16 * 1024; // the array qualifies
    auto procs = initialProcesses(*dec.fs, opt);
    // The 4 reader fibers + idx writer... readers collapse into one.
    size_t readers_merged = 0;
    for (const auto &p : procs)
        if (p.fibers.size() >= 4)
            ++readers_merged;
    EXPECT_EQ(readers_merged, 1u);

    // With a higher threshold nothing merges.
    MergeOptions lax;
    lax.largeArrayBytes = 1024 * 1024;
    EXPECT_EQ(initialProcesses(*dec.fs, lax).size(), dec.fs->size());
}

TEST(Merge, ReachesTargetAndStaysComplete)
{
    Decomposed dec(designs::makeSr(2));
    for (uint32_t target : {4u, 16u, 64u}) {
        MergeStats stats;
        Partitioning p =
            bottomUpPartition(*dec.fs, 1, target, MergeOptions{},
                              &stats);
        p.checkComplete(*dec.fs); // panics on violation
        EXPECT_LE(p.processes.size(), target);
        EXPECT_GE(stats.finalMakespanIpu, stats.stragglerIpu);
    }
}

TEST(Merge, MoreTilesNeverWorseMakespan)
{
    Decomposed dec(designs::makeBitcoin({4, 16}));
    uint64_t prev = UINT64_MAX;
    for (uint32_t target : {8u, 32u, 128u}) {
        Partitioning p = bottomUpPartition(*dec.fs, 1, target);
        EXPECT_LE(p.makespanIpu(), prev) << target;
        prev = p.makespanIpu();
    }
}

TEST(Merge, RespectsMemoryLimit)
{
    Decomposed dec(designs::makeSr(2));
    MergeOptions opt;
    Partitioning p = bottomUpPartition(*dec.fs, 1, 32, opt);
    for (const Process &proc : p.processes)
        EXPECT_LE(proc.memBytes(*dec.fs), opt.tileMemoryBytes);
}

TEST(Merge, FailsWhenDesignCannotFit)
{
    Decomposed dec(designs::makeSr(3));
    MergeOptions opt;
    opt.tileMemoryBytes = 2 * 1024; // absurdly small tiles
    EXPECT_THROW(bottomUpPartition(*dec.fs, 1, 1, opt), FatalError);
}

TEST(Merge, SingletonPassThrough)
{
    // If fibers <= tiles, nothing merges (one fiber per tile is
    // optimal, paper §4.3).
    Decomposed dec(designs::makePrngBank(12));
    Partitioning p = bottomUpPartition(*dec.fs, 1, 64);
    EXPECT_EQ(p.processes.size(), dec.fs->size());
}

// ---- Strategies ----------------------------------------------------------

TEST(Strategy, HypergraphAlternativeIsComplete)
{
    Decomposed dec(designs::makeSr(2));
    PartitionOptions opt;
    opt.single = SingleChipStrategy::Hypergraph;
    opt.tilesPerChip = 32;
    Partitioning p = partitionDesign(*dec.fs, opt);
    p.checkComplete(*dec.fs);
    EXPECT_LE(p.processes.size(), 32u);
}

TEST(Strategy, MultiChipAssignsAllChips)
{
    Decomposed dec(designs::makeSr(3));
    for (auto multi : {MultiChipStrategy::Pre, MultiChipStrategy::Post,
                       MultiChipStrategy::None}) {
        PartitionOptions opt;
        opt.chips = 2;
        opt.tilesPerChip = 32;
        opt.multi = multi;
        Partitioning p = partitionDesign(*dec.fs, opt);
        p.checkComplete(*dec.fs);
        std::vector<size_t> per_chip(2, 0);
        for (const Process &proc : p.processes) {
            ASSERT_GE(proc.chip, 0);
            ASSERT_LT(proc.chip, 2);
            ++per_chip[proc.chip];
        }
        EXPECT_GT(per_chip[0], 0u) << static_cast<int>(multi);
        EXPECT_GT(per_chip[1], 0u) << static_cast<int>(multi);
        EXPECT_LE(per_chip[0], 32u);
        EXPECT_LE(per_chip[1], 32u);
    }
}

TEST(Strategy, PartitionedCutBeatsOblivious)
{
    // Paper Fig. 16: Pre (and Post) should produce a smaller off-chip
    // cut than chip-oblivious None.
    Decomposed dec(designs::makeSr(4));
    auto cut_for = [&](MultiChipStrategy multi) {
        PartitionOptions opt;
        opt.chips = 4;
        opt.tilesPerChip = 64;
        opt.multi = multi;
        Partitioning p = partitionDesign(*dec.fs, opt);
        return offChipCutBytes(*dec.fs, p.processes);
    };
    uint64_t pre = cut_for(MultiChipStrategy::Pre);
    uint64_t none = cut_for(MultiChipStrategy::None);
    EXPECT_LT(pre, none);
}

TEST(Strategy, DuplicationRatioAtLeastOne)
{
    Decomposed dec(designs::makeSr(2));
    Partitioning p = bottomUpPartition(*dec.fs, 1, 64);
    EXPECT_GE(p.duplicationRatio(*dec.fs), 1.0);
}
