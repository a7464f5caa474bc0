/**
 * @file
 * A weighted hypergraph and a multilevel k-way partitioner (heavy-edge
 * coarsening, greedy initial partition, FM-style refinement). This is
 * the stand-in for the KaHyPar library used by paper §5.1 stage 2 (and
 * for the RepCut-style "H" strategy of §6.4.1).
 */

#ifndef PARENDI_PARTITION_HYPERGRAPH_HH
#define PARENDI_PARTITION_HYPERGRAPH_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace parendi::partition {

/**
 * Pin-list hypergraph with integer node and edge weights. Pins and
 * incidence are stored flat (one array plus per-edge / per-node start
 * offsets), so building and coarsening allocate O(1) times, not once
 * per edge and node.
 */
struct Hypergraph
{
    std::vector<uint64_t> nodeWeight;
    std::vector<uint64_t> edgeWeight;
    /// edge e's pins, ascending: pinList[pinStart[e] .. pinStart[e+1])
    std::vector<uint32_t> pinStart{0};
    std::vector<uint32_t> pinList;
    /// node v's edges, ascending: incList[incStart[v] .. incStart[v+1])
    /// (filled by buildIncidence)
    std::vector<uint32_t> incStart;
    std::vector<uint32_t> incList;

    size_t numNodes() const { return nodeWeight.size(); }
    size_t numEdges() const { return edgeWeight.size(); }

    std::span<const uint32_t>
    pins(uint32_t e) const
    {
        return {pinList.data() + pinStart[e],
                pinList.data() + pinStart[e + 1]};
    }
    std::span<const uint32_t>
    incident(uint32_t v) const
    {
        return {incList.data() + incStart[v],
                incList.data() + incStart[v + 1]};
    }
    /** True once buildIncidence() has run for the current nodes. */
    bool
    hasIncidence() const
    {
        return incStart.size() == numNodes() + 1;
    }

    uint32_t addNode(uint64_t weight);
    /** Add a hyperedge; duplicate pins are removed; edges with fewer
     *  than two distinct pins are dropped (returns false). */
    bool addEdge(uint64_t weight, std::vector<uint32_t> edge_pins);

    /** (Re)build the node->edges incidence lists. */
    void buildIncidence();

    uint64_t totalNodeWeight() const;
};

struct HgOptions
{
    uint32_t k = 2;             ///< number of parts
    double epsilon = 0.05;      ///< balance slack
    uint64_t seed = 1;
    int refinePasses = 4;
    size_t coarsenTarget = 0;   ///< 0 = auto (16*k, min 64)
};

/** Connectivity-1 objective: Σ_e w(e) · (λ(e) − 1). */
uint64_t connectivityCost(const Hypergraph &hg,
                          const std::vector<uint32_t> &part, uint32_t k);

/** Cut-net objective: Σ_{e : λ(e)>1} w(e). */
uint64_t cutCost(const Hypergraph &hg, const std::vector<uint32_t> &part);

/**
 * Multilevel k-way partition minimizing connectivity-1 under the
 * balance constraint (per-part node weight ≤ (1+ε)·total/k).
 * Returns the part id of each node.
 */
std::vector<uint32_t> partitionHypergraph(const Hypergraph &hg,
                                          const HgOptions &opt);

} // namespace parendi::partition

#endif // PARENDI_PARTITION_HYPERGRAPH_HH
