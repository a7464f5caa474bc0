/**
 * @file
 * The host BSP runtime's synchronization: one wait primitive
 * (ProgressCounter) and a persistent worker pool built on it.
 *
 * BspPool runs N host workers (the calling thread is worker 0) that
 * execute one dispatch at a time. This is the host-side analogue of
 * the IPU's hardware barrier: the static shard/tile partition of a
 * compiled BSP simulation maps onto persistent workers instead of
 * per-cycle thread spawns (which cost tens of microseconds each and
 * dominated the seed implementation's threaded step). A dispatch is
 * two counters:
 *  - release: the caller publishes the job and advances the epoch
 *    counter; worker w waits for the epoch to reach the one after the
 *    last it ran, so consecutive dispatches can never be confused;
 *  - arrival: each worker advances a cumulative completion counter;
 *    the caller waits until it reaches N - 1 per dispatch so far.
 *
 * Inside a dispatch, rtl::ShardSet separates the cycles of a batch
 * with a barrier on one more ProgressCounter (see rtl/shard.hh), so a
 * multi-cycle batch costs one pool epoch.
 */

#ifndef PARENDI_UTIL_BSP_POOL_HH
#define PARENDI_UTIL_BSP_POOL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace parendi::util {

/**
 * A counter that threads advance and wait on: the single wait
 * primitive of the host BSP runtime (the pool's epochs and arrivals,
 * and the shard set's per-cycle barrier).
 *
 * The value is a wrapping 32-bit count, compared by serial-number
 * arithmetic (reached()), so it may run forever as long as a waiter's
 * target is within 2^31 of the value — every user waits at most one
 * round of advances ahead. The counter owns a full cache line, so
 * two counters never share one.
 *
 * waitFor() spins with a CPU pause for a fixed time bound (about the
 * longest wait a dedicated core should absorb without a syscall),
 * then registers as a sleeper and blocks in C++20 atomic::wait (a
 * futex). A writer calls notify_all only when a sleeper is registered,
 * so the common, spun-out case costs the writer one extra load. Every
 * advance is a release: whatever the writer wrote before it is visible
 * to a waiter that has seen the new value.
 */
class alignas(64) ProgressCounter
{
  public:
    /** Advance by @p d (any number of concurrent writers). */
    void
    add(uint32_t d)
    {
        value_.fetch_add(d, std::memory_order_seq_cst);
        wake();
    }

    /** Block until the value has reached @p target. */
    void waitFor(uint32_t target) const;

    /** True when the value has reached @p target (no wait). */
    bool
    reached(uint32_t target) const
    {
        return reached(value_.load(std::memory_order_acquire), target);
    }

  private:
    /** True when @p value has reached @p target on the wrapping
     *  count. */
    static bool
    reached(uint32_t value, uint32_t target)
    {
        return static_cast<int32_t>(value - target) >= 0;
    }

    void
    wake()
    {
        // seq_cst pairs with the waiter's seq_cst sleepers_ increment
        // and value recheck: either the waiter's increment precedes
        // this load (we notify) or the value store precedes its
        // recheck (it never sleeps) — no lost wakeup either way.
        if (sleepers_.load(std::memory_order_seq_cst) != 0)
            value_.notify_all();
    }

    std::atomic<uint32_t> value_{0};
    mutable std::atomic<uint32_t> sleepers_{0};
};

/**
 * Observer of the pool's barrier waits, so wait time is attributable
 * per worker instead of being buried inside the spin-then-futex path.
 * For every epoch, every worker produces exactly one Begin/End pair:
 *
 *  - workers 1..N-1 around the wait for the next epoch release (the
 *    time between finishing their superstep and the caller publishing
 *    the next one);
 *  - worker 0 (the caller) around the arrival wait in run() (the time
 *    it spends waiting for stragglers after finishing its own share).
 *
 * The pair fires even when the wait is satisfied immediately (a
 * zero-duration interval), so observers can count epochs. Callbacks
 * run on the waiting worker's thread and must not block.
 */
class BspWaitObserver
{
  public:
    virtual ~BspWaitObserver() = default;
    virtual void epochWaitBegin(uint32_t worker) = 0;
    virtual void epochWaitEnd(uint32_t worker) = 0;
};

/** Worker threads the host can run at once: its hardware concurrency,
 *  or 1 when the runtime cannot say. The default cap on shards and
 *  pool workers everywhere a count is not given. */
uint32_t hostConcurrency();

class BspPool
{
  public:
    /** A pool of @p threads workers total; @p threads - 1 host threads
     *  are spawned (the caller participates as worker 0). A count of
     *  0 or 1 spawns nothing and run() degenerates to a plain call. */
    explicit BspPool(uint32_t threads);
    ~BspPool();

    BspPool(const BspPool &) = delete;
    BspPool &operator=(const BspPool &) = delete;

    uint32_t threads() const { return nthreads_; }

    /** One superstep: run job(worker) on every worker concurrently and
     *  return once all are done (the join). The job must only write
     *  state private to its worker index — that is the BSP contract. */
    void run(const std::function<void(uint32_t worker)> &job);

    /**
     * Install (or clear, with nullptr) the barrier-wait observer. Must
     * be called while the pool is idle (no run() in flight); the
     * observer must outlive the pool or be cleared before destruction.
     */
    void setWaitObserver(BspWaitObserver *observer);

  private:
    void workerLoop(uint32_t worker);
    /** @p counter.waitFor(@p target), bracketed by the wait observer's
     *  hooks for @p worker. */
    void observedWait(const ProgressCounter &counter, uint32_t target,
                      uint32_t worker);

    uint32_t nthreads_;
    std::vector<std::thread> workers_;

    ProgressCounter epoch_;         ///< release: dispatches published
    ProgressCounter arrived_;       ///< arrival: cumulative completions
    uint32_t arrivalTarget_ = 0;    ///< arrived_ value ending this run
    std::atomic<bool> stop_{false};
    const std::function<void(uint32_t)> *job_ = nullptr;
    std::atomic<BspWaitObserver *> observer_{nullptr};
};

} // namespace parendi::util

#endif // PARENDI_UTIL_BSP_POOL_HH
