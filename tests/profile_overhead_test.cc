/**
 * @file
 * Profiling overhead guard: the whole point of sampled timestamping is
 * that leaving --profile on costs almost nothing in steady state. This
 * test runs the pico core on the reference interpreter with profiling
 * off and with `--profile-every 64`, and asserts the profiled run is
 * within 5% of the unprofiled one. Each measurement is the stepping
 * thread's own CPU time (CLOCK_THREAD_CPUTIME_ID), so time the thread
 * spends preempted by other tests or tenants does not count, and the
 * two configurations alternate over many reps with the minimum of each
 * taken, so slow phases of a shared host hit both alike.
 */

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>

#include "designs/cores.hh"
#include "obs/profiler.hh"
#include "rtl/interp.hh"

using namespace parendi;

namespace {

double
threadCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Thread CPU seconds for stepping @p sim by @p cycles. */
double
stepCpuSeconds(rtl::Interpreter &sim, uint64_t cycles)
{
    const double t0 = threadCpuSeconds();
    sim.step(cycles);
    return threadCpuSeconds() - t0;
}

} // namespace

TEST(ProfileOverhead, SampledProfilingStaysUnderFivePercent)
{
    constexpr uint64_t kCycles = 6000;
    constexpr int kReps = 24;

    rtl::Interpreter plain(
        designs::makePico(designs::defaultCoreConfig()));
    rtl::Interpreter profiled(
        designs::makePico(designs::defaultCoreConfig()));
    obs::ProfileOptions popt;
    popt.sampleEvery = 64;
    ASSERT_TRUE(profiled.enableProfiling(popt));

    // Warm both engines (first steps touch cold state; the profiled
    // engine also calibrates the tick clock on attach).
    plain.step(kCycles);
    profiled.step(kCycles);

    // Interleave the measurements, alternating which configuration
    // goes first, so neither always runs on the warmer cache.
    double base = 1e30, prof = 1e30;
    for (int r = 0; r < kReps; ++r) {
        if (r % 2) {
            prof = std::min(prof, stepCpuSeconds(profiled, kCycles));
            base = std::min(base, stepCpuSeconds(plain, kCycles));
        } else {
            base = std::min(base, stepCpuSeconds(plain, kCycles));
            prof = std::min(prof, stepCpuSeconds(profiled, kCycles));
        }
    }

    ASSERT_GT(base, 0.0);
    double overhead = prof / base - 1.0;
    RecordProperty("overhead_percent",
                   static_cast<int>(overhead * 100));
    EXPECT_LT(overhead, 0.05)
        << "profiled " << prof << "s vs unprofiled " << base
        << "s of thread CPU time over " << kCycles << " cycles";

    // The profiler really was live: every cycle counted, one in 64
    // sampled.
    const obs::SuperstepProfiler &p = *profiled.profiler();
    EXPECT_EQ(p.cyclesSeen(), kCycles * (kReps + 1));
    EXPECT_EQ(p.cyclesSampled(), (kCycles * (kReps + 1) - 1) / 64 + 1);
}
