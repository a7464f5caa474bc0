#include "partition/hypergraph.hh"

#include <algorithm>
#include <numeric>

#include "partition/makespan.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace parendi::partition {

uint32_t
Hypergraph::addNode(uint64_t weight)
{
    nodeWeight.push_back(weight);
    return static_cast<uint32_t>(nodeWeight.size() - 1);
}

bool
Hypergraph::addEdge(uint64_t weight, std::vector<uint32_t> edge_pins)
{
    std::sort(edge_pins.begin(), edge_pins.end());
    edge_pins.erase(std::unique(edge_pins.begin(), edge_pins.end()),
                    edge_pins.end());
    if (edge_pins.size() < 2)
        return false;
    edgeWeight.push_back(weight);
    pinList.insert(pinList.end(), edge_pins.begin(), edge_pins.end());
    pinStart.push_back(static_cast<uint32_t>(pinList.size()));
    return true;
}

void
Hypergraph::buildIncidence()
{
    incStart.assign(numNodes() + 1, 0);
    for (uint32_t v : pinList)
        ++incStart[v + 1];
    for (size_t v = 0; v < numNodes(); ++v)
        incStart[v + 1] += incStart[v];
    incList.resize(pinList.size());
    std::vector<uint32_t> fill(incStart.begin(), incStart.end() - 1);
    for (uint32_t e = 0; e < numEdges(); ++e)
        for (uint32_t v : pins(e))
            incList[fill[v]++] = e;
}

uint64_t
Hypergraph::totalNodeWeight() const
{
    return std::accumulate(nodeWeight.begin(), nodeWeight.end(),
                           uint64_t{0});
}

uint64_t
connectivityCost(const Hypergraph &hg, const std::vector<uint32_t> &part,
                 uint32_t k)
{
    (void)k;
    uint64_t cost = 0;
    std::vector<uint32_t> seen;
    for (uint32_t e = 0; e < hg.numEdges(); ++e) {
        seen.clear();
        for (uint32_t v : hg.pins(e))
            seen.push_back(part[v]);
        std::sort(seen.begin(), seen.end());
        seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
        cost += hg.edgeWeight[e] * (seen.size() - 1);
    }
    return cost;
}

uint64_t
cutCost(const Hypergraph &hg, const std::vector<uint32_t> &part)
{
    uint64_t cost = 0;
    for (uint32_t e = 0; e < hg.numEdges(); ++e) {
        uint32_t first = part[hg.pins(e)[0]];
        for (uint32_t v : hg.pins(e)) {
            if (part[v] != first) {
                cost += hg.edgeWeight[e];
                break;
            }
        }
    }
    return cost;
}

namespace {

/**
 * Per-edge pin counts per part, as (part, pins) pairs. Most edges touch
 * only a handful of parts even for large k, so each edge holds a short
 * unsorted list; all lists share one flat buffer, edge e owning
 * min(k, |pins(e)|) slots from start[e].
 */
class EdgeParts
{
  public:
    EdgeParts(const Hypergraph &hg, uint32_t k)
        : start_(hg.numEdges() + 1, 0), len_(hg.numEdges(), 0)
    {
        for (uint32_t e = 0; e < hg.numEdges(); ++e)
            start_[e + 1] = start_[e] +
                std::min<uint32_t>(
                    k, static_cast<uint32_t>(hg.pins(e).size()));
        slots_.resize(start_.back());
    }

    /** Parts present on edge @p e with their pin counts. */
    std::span<const std::pair<uint32_t, uint32_t>>
    counts(uint32_t e) const
    {
        return {slots_.data() + start_[e], len_[e]};
    }

    void
    add(uint32_t e, uint32_t part)
    {
        auto *b = slots_.data() + start_[e];
        for (uint32_t i = 0; i < len_[e]; ++i) {
            if (b[i].first == part) {
                ++b[i].second;
                return;
            }
        }
        b[len_[e]++] = {part, 1};
    }

    void
    remove(uint32_t e, uint32_t part)
    {
        auto *b = slots_.data() + start_[e];
        for (uint32_t i = 0; i < len_[e]; ++i) {
            if (b[i].first == part) {
                if (--b[i].second == 0)
                    b[i] = b[--len_[e]];
                return;
            }
        }
        panic("EdgeParts::remove: part %u not present", part);
    }

  private:
    std::vector<uint32_t> start_;
    std::vector<uint32_t> len_;
    std::vector<std::pair<uint32_t, uint32_t>> slots_;
};

/**
 * One greedy FM-style refinement pass: visit nodes in random order and
 * apply the best positive-gain (connectivity-1) move that keeps
 * balance. Returns number of moves applied.
 */
size_t
refinePass(const Hypergraph &hg, std::vector<uint32_t> &part,
           EdgeParts &edge_parts,
           std::vector<uint64_t> &part_weight, uint64_t max_part_weight,
           Rng &rng)
{
    size_t moves = 0;
    std::vector<uint32_t> order(hg.numNodes());
    std::iota(order.begin(), order.end(), 0);
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    // Moving v from `from` to `to` changes edge e's lambda by -1 when
    // v is the last pin of `from` and `to` is present, and by +1 when
    // `from` keeps pins and `to` is absent, so the connectivity gain is
    //   gain(to) = Σ w(e) over e with `to` present
    //            − Σ w(e) over e where `from` keeps pins,
    // collected for every candidate in one sweep of v's edges.
    std::vector<uint32_t> cands;
    std::vector<int64_t> present(part_weight.size(), 0);
    std::vector<char> seen(part_weight.size(), 0);
    for (uint32_t v : order) {
        const uint32_t from = part[v];
        int64_t stays = 0;
        cands.clear();
        for (uint32_t e : hg.incident(v)) {
            const int64_t w = static_cast<int64_t>(hg.edgeWeight[e]);
            for (const auto &[p, c] : edge_parts.counts(e)) {
                if (p == from) {
                    if (c > 1)
                        stays += w;
                } else {
                    if (!seen[p]) {
                        seen[p] = 1;
                        cands.push_back(p);
                    }
                    present[p] += w;
                }
            }
        }
        if (cands.empty())
            continue;
        // Candidates in ascending part order (the tie-break below
        // depends on it).
        std::sort(cands.begin(), cands.end());

        int64_t best_gain = 0;
        uint32_t best_to = from;
        for (uint32_t to : cands) {
            const int64_t gain = present[to] - stays;
            present[to] = 0;
            seen[to] = 0;
            if (part_weight[to] + hg.nodeWeight[v] > max_part_weight)
                continue;
            if (gain > best_gain ||
                (gain == best_gain && best_to != from &&
                 part_weight[to] < part_weight[best_to])) {
                best_gain = gain;
                best_to = to;
            }
        }
        if (best_to == from || best_gain <= 0)
            continue;
        // Apply the move.
        for (uint32_t e : hg.incident(v)) {
            edge_parts.remove(e, from);
            edge_parts.add(e, best_to);
        }
        part_weight[from] -= hg.nodeWeight[v];
        part_weight[best_to] += hg.nodeWeight[v];
        part[v] = best_to;
        ++moves;
    }
    return moves;
}

void
refine(const Hypergraph &hg, std::vector<uint32_t> &part,
       const HgOptions &opt, uint64_t max_part_weight, Rng &rng)
{
    EdgeParts edge_parts(hg, opt.k);
    for (uint32_t e = 0; e < hg.numEdges(); ++e)
        for (uint32_t v : hg.pins(e))
            edge_parts.add(e, part[v]);
    std::vector<uint64_t> part_weight(opt.k, 0);
    for (uint32_t v = 0; v < hg.numNodes(); ++v)
        part_weight[part[v]] += hg.nodeWeight[v];

    for (int pass = 0; pass < opt.refinePasses; ++pass) {
        size_t moves = refinePass(hg, part, edge_parts, part_weight,
                                  max_part_weight, rng);
        if (moves == 0)
            break;
    }
}

/** Heavy-edge matching contraction. Returns fine->coarse mapping and
 *  the coarse hypergraph; nullopt-style empty mapping if no progress. */
struct CoarseLevel
{
    Hypergraph hg;
    std::vector<uint32_t> fineToCoarse;
};

bool
coarsen(const Hypergraph &fine, uint64_t max_cluster_weight, Rng &rng,
        CoarseLevel &out)
{
    size_t n = fine.numNodes();
    std::vector<uint32_t> match(n, UINT32_MAX);
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    size_t matched = 0;
    // Dense ratings, reset through the list of neighbours touched.
    std::vector<double> rating(n, 0.0);
    std::vector<uint32_t> touched;
    for (uint32_t u : order) {
        if (match[u] != UINT32_MAX)
            continue;
        touched.clear();
        for (uint32_t e : fine.incident(u)) {
            std::span<const uint32_t> epins = fine.pins(e);
            if (epins.size() > 64)
                continue; // skip huge edges: poor signal, costly
            double r = static_cast<double>(fine.edgeWeight[e]) /
                (static_cast<double>(epins.size()) - 1.0);
            for (uint32_t v : epins) {
                if (v != u && match[v] == UINT32_MAX) {
                    if (rating[v] == 0.0)
                        touched.push_back(v);
                    rating[v] += r;
                }
            }
        }
        uint32_t best = UINT32_MAX;
        double best_r = 0.0;
        for (uint32_t v : touched) {
            const double r = rating[v];
            rating[v] = 0.0;
            if (fine.nodeWeight[u] + fine.nodeWeight[v] >
                max_cluster_weight)
                continue;
            if (r > best_r || (r == best_r && v < best)) {
                best_r = r;
                best = v;
            }
        }
        if (best != UINT32_MAX) {
            match[u] = best;
            match[best] = u;
            matched += 2;
        }
    }
    if (matched < n / 20)
        return false; // negligible progress

    // Assign coarse ids.
    out.fineToCoarse.assign(n, UINT32_MAX);
    uint32_t next_id = 0;
    for (uint32_t u = 0; u < n; ++u) {
        if (out.fineToCoarse[u] != UINT32_MAX)
            continue;
        out.fineToCoarse[u] = next_id;
        if (match[u] != UINT32_MAX)
            out.fineToCoarse[match[u]] = next_id;
        ++next_id;
    }
    out.hg = Hypergraph{};
    out.hg.nodeWeight.assign(next_id, 0);
    for (uint32_t u = 0; u < n; ++u)
        out.hg.nodeWeight[out.fineToCoarse[u]] += fine.nodeWeight[u];
    out.hg.edgeWeight.reserve(fine.numEdges());
    out.hg.pinStart.reserve(fine.numEdges() + 1);
    out.hg.pinList.reserve(fine.pinList.size());
    for (uint32_t e = 0; e < fine.numEdges(); ++e) {
        // Map the pins in place at the end of the list, then sort,
        // dedupe, and keep the edge only if it still has two pins.
        const size_t begin = out.hg.pinList.size();
        for (uint32_t v : fine.pins(e))
            out.hg.pinList.push_back(out.fineToCoarse[v]);
        auto first = out.hg.pinList.begin() + begin;
        std::sort(first, out.hg.pinList.end());
        out.hg.pinList.erase(std::unique(first, out.hg.pinList.end()),
                             out.hg.pinList.end());
        if (out.hg.pinList.size() - begin >= 2) {
            out.hg.edgeWeight.push_back(fine.edgeWeight[e]);
            out.hg.pinStart.push_back(
                static_cast<uint32_t>(out.hg.pinList.size()));
        } else {
            out.hg.pinList.resize(begin);
        }
    }
    out.hg.buildIncidence();
    return true;
}

/** Balanced greedy initial partition: LPT on node weights. */
std::vector<uint32_t>
initialPartition(const Hypergraph &hg, const HgOptions &opt)
{
    Schedule s = lptSchedule(hg.nodeWeight, opt.k);
    return s.binOf;
}

} // namespace

std::vector<uint32_t>
partitionHypergraph(const Hypergraph &hg_in, const HgOptions &opt)
{
    if (opt.k == 0)
        fatal("partitionHypergraph: k must be positive");
    if (hg_in.numNodes() == 0)
        return {};
    if (opt.k == 1)
        return std::vector<uint32_t>(hg_in.numNodes(), 0);

    Rng rng(opt.seed);
    uint64_t total = hg_in.totalNodeWeight();
    uint64_t max_part_weight = static_cast<uint64_t>(
        static_cast<double>(total) / opt.k * (1.0 + opt.epsilon)) + 1;
    // Never let a single cluster exceed the part budget during
    // coarsening, or balance becomes unachievable.
    uint64_t max_cluster_weight = std::max<uint64_t>(
        max_part_weight / 4, 1);

    size_t target = opt.coarsenTarget
        ? opt.coarsenTarget
        : std::max<size_t>(static_cast<size_t>(opt.k) * 16, 64);

    // Build the V-cycle. The input is only copied when it lacks its
    // incidence lists.
    Hypergraph withIncidence;
    const Hypergraph *firstp = &hg_in;
    if (!hg_in.hasIncidence()) {
        withIncidence = hg_in;
        withIncidence.buildIncidence();
        firstp = &withIncidence;
    }
    const Hypergraph &first = *firstp;
    std::vector<CoarseLevel> levels;
    const Hypergraph *cur = &first;
    while (cur->numNodes() > target) {
        CoarseLevel lvl;
        if (!coarsen(*cur, max_cluster_weight, rng, lvl))
            break;
        levels.push_back(std::move(lvl));
        cur = &levels.back().hg;
    }

    std::vector<uint32_t> part = initialPartition(*cur, opt);
    refine(*cur, part, opt, max_part_weight, rng);

    // Uncoarsen with refinement at each level.
    for (size_t li = levels.size(); li-- > 0;) {
        const Hypergraph &fine =
            li == 0 ? first : levels[li - 1].hg;
        std::vector<uint32_t> fine_part(fine.numNodes());
        for (uint32_t v = 0; v < fine.numNodes(); ++v)
            fine_part[v] = part[levels[li].fineToCoarse[v]];
        part = std::move(fine_part);
        refine(fine, part, opt, max_part_weight, rng);
    }
    return part;
}

} // namespace parendi::partition
