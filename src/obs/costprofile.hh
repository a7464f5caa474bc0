/**
 * @file
 * CostProfile: measured per-fiber evaluation costs, persisted across
 * runs. The static x86 cost model weighs the initial placement of
 * fibers onto shards; a profiled run attributes each shard's measured
 * eval ticks back to its fibers and saves them here, so the next run
 * partitions on what the fibers actually cost — the
 * telemetry-directed repartitioning loop. Keys are stable
 * design names, not node ids, so a profile survives recompilation:
 *
 *     reg:<register name>         RegNext fiber
 *     memw:<memory name>:<port>   MemWrite fiber (write-port index)
 *     out:<output name>           Output fiber
 *
 * The on-disk format is one "<key> <cost>" pair per line ('#' starts
 * a comment), diff-friendly and hand-editable.
 */

#ifndef PARENDI_OBS_COSTPROFILE_HH
#define PARENDI_OBS_COSTPROFILE_HH

#include <map>
#include <string>

namespace parendi::obs {

/** A named map of measured fiber costs (arbitrary but consistent
 *  units; only ratios matter to the partitioner). */
struct CostProfile
{
    std::map<std::string, double> cost;

    bool empty() const { return cost.empty(); }
    size_t size() const { return cost.size(); }

    void
    set(const std::string &key, double value)
    {
        cost[key] = value;
    }

    /** The measured cost of @p key, or @p fallback when the profile
     *  has never seen it (new or renamed fiber). */
    double lookup(const std::string &key, double fallback) const;

    /** Sum of every recorded cost (normalization denominator). */
    double total() const;

    /** Parse @p path; false (with a warning) when the file cannot be
     *  read or a line is malformed. Merges into the current map. */
    bool load(const std::string &path);

    /** Write every entry to @p path (atomically enough: truncate and
     *  rewrite); false (with a warning) on I/O failure. */
    bool save(const std::string &path) const;
};

} // namespace parendi::obs

#endif // PARENDI_OBS_COSTPROFILE_HH
