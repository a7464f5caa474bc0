#include "util/bsp_pool.hh"

#include <algorithm>
#include <chrono>

namespace parendi::util {

namespace {

/** How long a waiter spins before it sleeps. Long enough that a wait
 *  for a peer on its own core (a cycle's load imbalance, tens of µs
 *  on the largest designs) never pays a futex round trip; short
 *  enough that an idle or oversubscribed waiter gives its core back
 *  quickly. */
constexpr std::chrono::microseconds kSpinBound{50};

/** Pauses between clock reads while spinning. */
constexpr int kPausesPerCheck = 64;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace

uint32_t
hostConcurrency()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

// -- ProgressCounter -----------------------------------------------------

void
ProgressCounter::waitFor(uint32_t target) const
{
    if (reached(value_.load(std::memory_order_acquire), target))
        return;
    const auto deadline = std::chrono::steady_clock::now() + kSpinBound;
    do {
        for (int i = 0; i < kPausesPerCheck; ++i) {
            cpuRelax();
            if (reached(value_.load(std::memory_order_acquire), target))
                return;
        }
    } while (std::chrono::steady_clock::now() < deadline);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    uint32_t v;
    while (!reached(v = value_.load(std::memory_order_seq_cst), target))
        value_.wait(v, std::memory_order_seq_cst);
    sleepers_.fetch_sub(1, std::memory_order_release);
}

// -- BspPool -------------------------------------------------------------

BspPool::BspPool(uint32_t threads)
    : nthreads_(std::max<uint32_t>(threads, 1))
{
    workers_.reserve(nthreads_ - 1);
    for (uint32_t w = 1; w < nthreads_; ++w)
        workers_.emplace_back([this, w]() { workerLoop(w); });
}

BspPool::~BspPool()
{
    if (workers_.empty())
        return;
    stop_.store(true, std::memory_order_release);
    epoch_.add(1);
    for (std::thread &t : workers_)
        t.join();
}

void
BspPool::observedWait(const ProgressCounter &counter, uint32_t target,
                      uint32_t worker)
{
    // The wait is bracketed by the observer hooks so barrier time is
    // attributable per worker instead of vanishing into the
    // spin-then-futex internals. Exactly one Begin/End pair fires per
    // epoch per worker, fast path included.
    BspWaitObserver *obs = observer_.load(std::memory_order_acquire);
    if (obs)
        obs->epochWaitBegin(worker);
    counter.waitFor(target);
    if (obs)
        obs->epochWaitEnd(worker);
}

void
BspPool::setWaitObserver(BspWaitObserver *observer)
{
    observer_.store(observer, std::memory_order_release);
}

void
BspPool::workerLoop(uint32_t worker)
{
    for (uint32_t epoch = 1;; ++epoch) {
        observedWait(epoch_, epoch, worker);
        if (stop_.load(std::memory_order_acquire))
            return;
        (*job_)(worker);
        arrived_.add(1);
    }
}

void
BspPool::run(const std::function<void(uint32_t)> &job)
{
    if (workers_.empty()) {
        job(0);
        return;
    }
    job_ = &job;
    arrivalTarget_ += nthreads_ - 1;
    epoch_.add(1);
    job(0);
    // The caller's barrier wait (worker 0): time spent here is the
    // stragglers' margin over the caller's own share of the work.
    observedWait(arrived_, arrivalTarget_, 0);
}

} // namespace parendi::util
