/**
 * @file
 * Top-level partitioning strategies evaluated in the paper:
 *
 *  - Single chip (§6.4.1): the default bottom-up merge (B) versus the
 *    RepCut-style hypergraph partitioning of duplicated computation (H).
 *  - Multi chip (§6.4.2): partition fibers across chips before merging
 *    (Pre, the default), partition finished processes (Post), or ignore
 *    chip boundaries entirely (None).
 */

#ifndef PARENDI_PARTITION_STRATEGY_HH
#define PARENDI_PARTITION_STRATEGY_HH

#include "partition/hypergraph.hh"
#include "partition/merge.hh"

namespace parendi::partition {

enum class SingleChipStrategy
{
    BottomUp,    ///< paper §5.1 (strategy "B")
    Hypergraph,  ///< RepCut-style replication-aware cut (strategy "H")
};

enum class MultiChipStrategy
{
    Pre,   ///< partition fibers across chips, then merge (default)
    Post,  ///< merge first, then partition processes across chips
    None,  ///< chip-oblivious: merge, deal out round-robin
};

struct PartitionOptions
{
    uint32_t chips = 1;
    uint32_t tilesPerChip = 1472;
    SingleChipStrategy single = SingleChipStrategy::BottomUp;
    MultiChipStrategy multi = MultiChipStrategy::Pre;
    MergeOptions merge;
};

/** Off-chip register traffic (bytes/cycle) implied by an assignment,
 *  counting each (register, remote chip) pair once. */
uint64_t offChipCutBytes(const fiber::FiberSet &fs,
                         const std::vector<Process> &procs);

/**
 * RepCut-style fiber hypergraph (paper §6.4.1): node i is fiber i,
 * weighted by @p fiberWeight[i]; every set of shared nodes read by the
 * same fibers becomes one hyperedge over those fibers, weighted by the
 * sum of their @p sharedWeight entries (each floored at 1). A balanced
 * min-connectivity cut of it keeps shared logic, and the registers
 * read through it, inside one part. Incidence lists are built.
 */
Hypergraph fiberHypergraph(const fiber::FiberSet &fs,
                           const std::vector<uint64_t> &fiberWeight,
                           const std::vector<uint64_t> &sharedWeight);

/**
 * Place the fibers of @p hg onto min(@p k, fibers) shards with a
 * balanced (ε = 0.05) min-connectivity partition under a fixed seed.
 * Every group is non-empty and ascending, and groups are ordered by
 * their first fiber, so equal placements compare equal.
 */
std::vector<std::vector<uint32_t>> placeFibers(const Hypergraph &hg,
                                               uint32_t k);

/** Partition a design according to @p opt. */
Partitioning partitionDesign(const fiber::FiberSet &fs,
                             const PartitionOptions &opt,
                             MergeStats *stats = nullptr);

} // namespace parendi::partition

#endif // PARENDI_PARTITION_STRATEGY_HH
