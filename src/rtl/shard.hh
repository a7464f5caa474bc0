/**
 * @file
 * ShardSet: the functional core of every partitioned BSP host
 * execution. A netlist is split into shards by a placement policy
 * (per-IPU-tile processes in IpuMachine, per-host-thread partitions in
 * ParallelInterpreter; both run the set through rtl::ShardEngine, see
 * shard_engine.hh); each shard's node set is lowered to a private
 * EvalProgram + EvalState, and the ShardSet derives the exchange
 * schedule that keeps replicated state coherent across shards:
 *
 *  - register messages: the owner shard (the one computing RegNext)
 *    sends the latched value to every shard holding a read-only copy;
 *  - write-port broadcasts: each array write port, in global netlist
 *    port order, is re-applied to every replica of the array
 *    (differential exchange — address + data, not the whole array).
 *
 * One simulated cycle is the BSP sequence
 *
 *    commit broadcasts -> latch registers -> exchange registers ->
 *    evaluate combinational programs
 *
 * where every phase only writes state private to one shard:
 *
 *  - commit: each shard applies, in ascending global port order, the
 *    broadcasts that have a replica on it, so colliding ports hit each
 *    image in port order;
 *  - latch: copies next -> cur of locally owned registers only;
 *  - exchange: sharded by *reader*: each shard copies in every foreign
 *    register it reads;
 *  - evaluate: purely shard-private.
 *
 * stepCycle runs that sequence in place on the calling thread; it is
 * the reference semantics and the single-worker path. With more than
 * one worker, stepCycles runs the *fused* owner-computes superstep,
 * which needs one barrier per cycle. The trick is a double-buffered
 * publish area: at the end of cycle c every shard copies out, for each
 * owned register with foreign readers, the post-eval NEXT value (which
 * is exactly the post-latch value the exchange of cycle c+1 would
 * deliver) and, for each owned write port, a pre-resolved broadcast
 * record [addr-or-skip, data words] (exactly the values the commit of
 * cycle c+1 would read, since nothing runs between eval(c) and
 * commit(c+1)). Cycle c+1 then serves commit and exchange entirely
 * from the stable cycle-c buffer while publishing into the other one,
 * so commit/latch/exchange/eval/publish all run back-to-back per
 * shard with no intervening barrier; a single end-of-cycle barrier
 * flips the buffers. The barrier is one util::ProgressCounter that
 * every worker advances at the end of a cycle and then waits on until
 * all have. Waiting only on exchange peers instead would gain nothing
 * on the measured designs: with static contiguous shard ranges every
 * worker reads data of every other on sr4, sr8 and bitcoin, so the
 * peer graph is complete. Collision order is preserved because replica
 * application still walks ascending global port order against
 * identical records, so the result is bit-identical to stepCycle at
 * any worker count. Any out-of-band state mutation (poke, reset,
 * restore, or in-place steps in between) invalidates the buffers; the
 * next fused batch republishes from live state.
 */

#ifndef PARENDI_RTL_SHARD_HH
#define PARENDI_RTL_SHARD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hh"
#include "obs/profiler.hh"
#include "rtl/eval.hh"
#include "rtl/netlist.hh"
#include "util/bsp_pool.hh"

namespace parendi::rtl {

class ShardSet
{
  public:
    /** One register value flowing owner -> reader each cycle. */
    struct RegMessage
    {
        uint32_t ownerShard;
        uint32_t ownerSlot;     ///< cur slot in owner (post-latch value)
        uint32_t readerShard;
        uint32_t readerSlot;
        uint32_t readerReg;     ///< reader program's ProgReg index
        uint16_t words;
        uint32_t bytes;         ///< exchange payload (4B granules)
        uint32_t pubOffset = 0; ///< value's offset in the publish buffer
    };

    /** One array write port fanned out to every replica. */
    struct PortBroadcast
    {
        uint32_t ownerShard;
        uint32_t addrSlot;
        uint16_t addrWidth;
        uint32_t dataSlot;
        uint32_t enSlot;
        MemId mem;
        uint32_t entryWords;
        uint32_t depth;
        /// Publish-buffer offset of this port's resolved record:
        /// [lanes addrs (each addr or kPubSkip), entryWords * lanes
        /// data words in the state's lane-major order].
        uint32_t pubOffset = 0;
        /// (shard, program-local memory index) of every replica.
        std::vector<std::pair<uint32_t, uint32_t>> replicas;
    };

    /** Publish-record address marker: port disabled or out of range
     *  this cycle — replicas skip the record. */
    static constexpr uint64_t kPubSkip = UINT64_MAX;

    ShardSet() = default;

    /**
     * Build one shard per entry of @p nodeSets (each a topologically
     * ascending node-id list, e.g. a sorted union of fiber cones) and
     * derive the exchange schedule. Every register/memory-write/output
     * sink of @p nl must be covered by some shard. @p lanes > 1 builds
     * a gang: every shard state holds that many replica lanes
     * (lane-major SoA, see EvalState), and the exchange schedule moves
     * all lanes of every message — publish offsets, broadcast records
     * and memcpy extents scale by the lane count while the schedule
     * itself (who talks to whom) is lane-invariant.
     */
    ShardSet(const Netlist &nl,
             const std::vector<std::vector<NodeId>> &nodeSets,
             const LowerOptions &lower, uint32_t lanes = 1);

    // EvalStates hold references into programs_; both live in vectors
    // whose heap buffers are stable, so the set is movable but not
    // copyable.
    ShardSet(ShardSet &&) = default;
    ShardSet &operator=(ShardSet &&) = default;

    size_t size() const { return programs_.size(); }
    const EvalProgram &program(size_t i) const { return programs_[i]; }
    EvalState &state(size_t i) { return *states_[i]; }
    const EvalState &state(size_t i) const { return *states_[i]; }
    /** Replica lanes every shard state steps per cycle (1 = scalar). */
    uint32_t lanes() const { return lanes_; }

    // -- BSP execution ---------------------------------------------------

    /** One full cycle in place on the calling thread: commit -> latch
     *  -> exchange -> evaluate. */
    void stepCycle();

    /**
     * Run @p n cycles. With more than one effective worker (a pool
     * wider than one and more than one shard) the whole batch is one
     * pool dispatch: every worker executes its shards'
     * commit/latch/exchange/eval/publish back-to-back each cycle and
     * cycles are separated by a single barrier on one
     * util::ProgressCounter — one barrier per cycle and one pool epoch
     * per batch. Otherwise this
     * is n calls to stepCycle, where fusion has no barriers to remove
     * and the in-place cycle is cheaper than publishing. Bit-identical
     * either way, at any worker count and batch size.
     */
    void stepCycles(util::BspPool *pool, uint64_t n);

    /**
     * Enable activity-guarded evaluation on every shard state: eval
     * skips groups whose input cone is unchanged, seeded locally by
     * each shard's latch/commit and across shards by the exchange
     * (received register values are compared before being copied) and
     * commit broadcasts. Returns false — and leaves the always-eval
     * path in place — if any shard program lacks an activity plan.
     * Bit-identical to always-eval on both step paths.
     */
    bool setActivity(bool on);
    bool activityEnabled() const { return activity_; }

    /** Evaluate every shard's combinational logic (the eval phase
     *  alone; engines call it once after building the shard set). */
    void evalAll();

    /** Restore initial images and re-evaluate all shards. */
    void reset();

    // -- Telemetry (obs) -------------------------------------------------

    /**
     * Attach (or detach, with nullptr) a superstep profiler. Every
     * stepped cycle then counts into it and, on sampled cycles,
     * timestamps the four supersteps per worker and the eval duration
     * per shard. The profiler must be sized for at least as many
     * workers as the pool passed to the step calls and for size()
     * shards, and must outlive this attachment.
     */
    void setProfiler(obs::SuperstepProfiler *prof);

    // -- Name-based host access ------------------------------------------

    /** Drive an input on every shard holding it (and re-evaluate those
     *  shards so the poke is combinationally visible). */
    void poke(const std::string &input, const BitVec &value);
    void poke(const std::string &input, uint64_t value);
    BitVec peek(const std::string &output) const;
    BitVec peekRegister(const std::string &reg) const;
    /** Allocation-free peeks into a caller-owned BitVec (the VCD
     *  tracer's per-cycle sampling path). */
    void peekInto(const std::string &output, BitVec &out) const;
    void peekRegisterInto(const std::string &reg, BitVec &out) const;
    /** Read one entry of a memory (from any replica; the exchange
     *  keeps them identical). */
    BitVec peekMemory(const std::string &mem, uint64_t index) const;

    // -- Gang lane access (scalar poke broadcasts; scalar peeks read
    //    lane 0; see core::SimEngine) ------------------------------------
    void pokeLane(const std::string &input, const BitVec &value,
                  uint32_t lane);
    BitVec peekLane(const std::string &output, uint32_t lane) const;
    BitVec peekRegisterLane(const std::string &reg, uint32_t lane) const;
    BitVec peekMemoryLane(const std::string &mem, uint64_t index,
                          uint32_t lane) const;

    /**
     * Read the canonical architectural state (netlist-id order, all
     * lanes) out of the shards: owner cur slots for registers, any
     * replica for memories (the exchange keeps them identical), the
     * first replica slot for inputs. Values the partition never placed
     * fall back to their netlist initial value.
     */
    void exportArch(core::ArchState &st) const;

    /**
     * Write an architectural state into the shards: owner register
     * slots, every memory replica and every input replica slot, then
     * one exchange + combinational re-evaluation so reader copies and
     * comb slots match the exporter's at-rest state exactly. Runs
     * sequentially (see the shared-pool contract). fatal() on a shape
     * or width mismatch.
     */
    void importArch(const core::ArchState &st);

    // -- Exchange schedule, for cost accounting --------------------------

    const std::vector<RegMessage> &regMessages() const
    {
        return regMessages_;
    }
    const std::vector<PortBroadcast> &broadcasts() const
    {
        return broadcasts_;
    }
    /** (shard, cur slot) of a register's owner. */
    std::pair<uint32_t, uint32_t> regHome(RegId r) const
    {
        return regHome_[r];
    }

    const Netlist &netlist() const { return *nl_; }

  private:
    /** One owner-side publish entry: a register with foreign readers. */
    struct PubReg
    {
        uint32_t nextSlot;  ///< owner's NEXT slot (post-eval value)
        uint16_t words;
        uint32_t offset;    ///< into the publish buffer
    };

    void buildExchange();
    void commitRange(size_t begin, size_t end);
    void latchRange(size_t begin, size_t end);
    void exchangeRange(size_t begin, size_t end);
    void evalRange(size_t begin, size_t end);
    void evalRangeImpl(size_t begin, size_t end, bool sampled);
    /** Run one phase over every shard on the calling thread,
     *  timestamped when the profiler samples this cycle. */
    void runPhase(obs::Phase phase,
                  void (ShardSet::*body)(size_t, size_t));

    // Fused-path bodies. @p parity selects the read buffer; the
    // complementary buffer is written.
    void commitRangeFrom(size_t begin, size_t end,
                         const uint64_t *rd);
    void exchangeRangeFrom(size_t begin, size_t end,
                           const uint64_t *rd);
    void publishRange(size_t begin, size_t end, uint64_t *wr);
    void fusedCycleRange(size_t begin, size_t end, uint32_t worker,
                         bool sampled, uint64_t cycle,
                         uint32_t parity);
    /** (Re)publish every shard's state into the buffer the next fused
     *  cycle reads — the out-of-band path after construction, poke,
     *  reset, restore, or any in-place stepping. */
    void publishAll();
    /** Open/close one profiled cycle (stepCycle and the fused batch
     *  loop bracket every cycle with these). */
    void profileCycleBegin();
    void profileCycleEnd();

    obs::SuperstepProfiler *prof_ = nullptr;
    obs::Counter *ctrInstrs_ = nullptr;
    obs::Counter *ctrExchWords_ = nullptr;
    obs::Counter *ctrNative_ = nullptr;
    obs::Counter *ctrGroupsSkipped_ = nullptr;
    obs::Counter *ctrGroupsTotal_ = nullptr;

    const Netlist *nl_ = nullptr;
    uint32_t lanes_ = 1;
    bool activity_ = false;     ///< activity-guarded eval on all shards
    std::vector<EvalProgram> programs_;
    std::vector<std::unique_ptr<EvalState>> states_;

    /// grouped by reader shard; readerRanges_[s] = [begin, end)
    std::vector<RegMessage> regMessages_;
    std::vector<std::pair<uint32_t, uint32_t>> readerRanges_;
    std::vector<PortBroadcast> broadcasts_;
    /// per shard: (broadcast index ascending, program-local mem index)
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> replicaPlan_;

    // -- Fused-superstep publish schedule --------------------------------
    /// grouped by owner shard; pubRegRanges_[s] = [begin, end)
    std::vector<PubReg> pubRegs_;
    std::vector<std::pair<uint32_t, uint32_t>> pubRegRanges_;
    /// per shard: indices of broadcasts_ it owns (publish order)
    std::vector<std::vector<uint32_t>> pubPortsByShard_;
    /// double-buffered publish area; cycle c reads parity (pubRead_+c)&1
    std::vector<uint64_t> pub_[2];
    uint32_t pubRead_ = 0;
    bool pubValid_ = false;
    /// per-cycle barrier of fused batches (made at the first one):
    /// every worker adds 1 at the end of each cycle and waits for all
    /// of that cycle's arrivals
    std::unique_ptr<util::ProgressCounter> arrivals_;
    /// arrivals_'s value between batches
    uint32_t arrivalsSeen_ = 0;

    /// input port -> [(shard, slot)] replicas
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> inputSlots_;
    /// output port -> (shard, slot)
    std::vector<std::pair<uint32_t, uint32_t>> outputSlots_;
    /// register -> (shard, cur slot) of its owner
    std::vector<std::pair<uint32_t, uint32_t>> regHome_;
};

} // namespace parendi::rtl

#endif // PARENDI_RTL_SHARD_HH
