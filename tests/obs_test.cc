/**
 * @file
 * Unit tests for the obs/ telemetry subsystem: the lock-free counter
 * registry (concurrent adds must be exact and TSan-clean), the
 * preallocated sample rings (wraparound keeps the newest window), the
 * report aggregation (the measured t_comp/t_comm/t_sync split must sum
 * to the sampled wall time by construction), and the Chrome
 * trace-event export (strict B/E nesting per thread).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "designs/cores.hh"
#include "obs/counters.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "util/strcat.hh"
#include "x86/parallel.hh"

using namespace parendi;

TEST(Counters, ConcurrentAddsAreExact)
{
    obs::Counters regs;
    obs::Counter &shared = regs.get("shared");
    constexpr int kThreads = 8;
    constexpr uint64_t kAdds = 50000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&regs, &shared, t]() {
            // Every thread hammers the shared counter and also
            // registers/bumps its own — registration under contention
            // must hand out stable addresses.
            obs::Counter &mine =
                regs.get(strCat("thread_", t));
            for (uint64_t i = 0; i < kAdds; ++i) {
                shared.add(1);
                mine.add(2);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(shared.value(), kThreads * kAdds);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(regs.get(strCat("thread_", t)).value(),
                  2 * kAdds);
    EXPECT_EQ(regs.size(), size_t{kThreads} + 1);
}

TEST(Counters, ReferencesStayValidAcrossGrowth)
{
    obs::Counters regs;
    obs::Counter &first = regs.get("first");
    first.add(7);
    // Force many registrations; the deque-backed registry must not
    // move existing counters.
    for (int i = 0; i < 1000; ++i)
        regs.get(strCat("c", i)).add(1);
    EXPECT_EQ(first.value(), 7u);
    EXPECT_EQ(&first, &regs.get("first"));
}

TEST(SampleRing, WraparoundKeepsNewest)
{
    obs::SampleRing ring(8);
    EXPECT_EQ(ring.capacity(), 8u);
    for (uint64_t i = 0; i < 20; ++i) {
        obs::Sample s;
        s.t0 = i;
        s.t1 = i + 1;
        s.cycle = i;
        ring.push(s);
        ring.notePushed();
    }
    EXPECT_EQ(ring.size(), 8u);
    EXPECT_EQ(ring.pushed(), 20u);
    // Oldest-first: cycles 12..19 survive.
    for (size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring.at(i).cycle, 12 + i) << "slot " << i;
}

namespace {

/** Drive the pico core on the parallel engine with profiling on. */
std::unique_ptr<rtl::ParallelInterpreter>
profiledPico(uint32_t threads, uint64_t cycles, uint64_t sample_every)
{
    // Pin real workers so multi-worker attribution (t_sync vs
    // overhead) is exercised regardless of the host's core count.
    rtl::ParConfig pcfg;
    pcfg.maxWorkers = threads;
    auto sim = std::make_unique<rtl::ParallelInterpreter>(
        designs::makePico(designs::defaultCoreConfig()), threads,
        rtl::LowerOptions{}, pcfg);
    obs::ProfileOptions popt;
    popt.sampleEvery = sample_every;
    EXPECT_TRUE(sim->enableProfiling(popt));
    sim->step(cycles);
    return sim;
}

} // namespace

TEST(Report, MeasuredSplitSumsToSampledWall)
{
    auto sim = profiledPico(2, 128, 1);
    obs::ProfileReport rep = obs::buildReport(*sim->profiler());
    EXPECT_EQ(rep.cyclesTotal, 128u);
    EXPECT_GT(rep.cyclesSampled, 0u);
    EXPECT_GT(rep.sampledWallSec, 0.0);
    // The residual of the sampled cycle span lands in t_sync (multi
    // worker) or overhead (single worker), so the four terms sum to
    // the measured wall time by construction.
    double sum = rep.tCompSec + rep.tCommSec + rep.tSyncSec +
        rep.overheadSec;
    EXPECT_NEAR(sum, rep.sampledWallSec, 1e-6 * rep.sampledWallSec);
    // The residual must land in exactly one bucket, keyed on whether
    // a barrier exists at all: a single-worker engine reporting
    // nonzero t_sync would be misattribution by definition.
    if (rep.workers <= 1)
        EXPECT_EQ(rep.tSyncSec, 0.0);
    else
        EXPECT_EQ(rep.overheadSec, 0.0);
    // Every superstep and counter shows up.
    EXPECT_GT(rep.tCompSec, 0.0);
    EXPECT_EQ(rep.workerWorkSec.size(), rep.workers);
    bool found_instrs = false;
    for (const auto &[name, value] : rep.counters)
        if (name == obs::kInstrsRetired) {
            found_instrs = true;
            EXPECT_GT(value, 0u);
        }
    EXPECT_TRUE(found_instrs);
    std::string text = obs::formatReport(rep);
    EXPECT_NE(text.find("measured r_cycle decomposition"),
              std::string::npos);
    EXPECT_NE(text.find("per-shard eval stragglers"),
              std::string::npos);
    EXPECT_NE(text.find(obs::kCyclesSimulated), std::string::npos);
}

TEST(Report, SamplingCadenceIsHonored)
{
    auto sim = profiledPico(1, 256, 16);
    const obs::SuperstepProfiler &prof = *sim->profiler();
    EXPECT_EQ(prof.cyclesSeen(), 256u);
    EXPECT_EQ(prof.cyclesSampled(), 256u / 16);
    obs::ProfileReport rep = obs::buildReport(prof);
    EXPECT_EQ(rep.cyclesSampled, 256u / 16);
}

TEST(Report, ModeledVsMeasuredShowsBothColumns)
{
    auto sim = profiledPico(2, 64, 1);
    obs::ProfileReport rep = obs::buildReport(*sim->profiler());
    obs::ModeledSplit m;
    m.source = "toy model";
    m.unit = "toy cyc";
    m.comp = 60;
    m.comm = 25;
    m.sync = 15;
    m.rateKHz = 10;
    std::string text = obs::formatModeledVsMeasured(m, rep);
    EXPECT_NE(text.find("toy model"), std::string::npos);
    EXPECT_NE(text.find("modeled"), std::string::npos);
    EXPECT_NE(text.find("measured"), std::string::npos);
    for (const char *row : {"t_comp", "t_comm", "t_sync", "total"})
        EXPECT_NE(text.find(row), std::string::npos) << row;
}

TEST(ChromeTrace, EventsNestPerThread)
{
    auto sim = profiledPico(2, 64, 1);
    std::ostringstream out;
    obs::writeChromeTrace(*sim->profiler(), out);
    std::string json = out.str();
    ASSERT_FALSE(json.empty());
    // Object form of the trace-event format.
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

    // Line-oriented structural check: per tid, B events push and E
    // events pop — the stack must never underflow and must be empty
    // at the end (strict nesting, the invariant chrome://tracing
    // relies on).
    std::map<int, int> depth;
    size_t events = 0, cycles_spans = 0;
    std::istringstream lines(json);
    std::string line;
    auto field = [&line](const std::string &key) -> std::string {
        size_t at = line.find("\"" + key + "\":");
        if (at == std::string::npos)
            return "";
        at = line.find_first_not_of(": ", at + key.size() + 3);
        size_t end = line.find_first_of(",}", at);
        std::string v = line.substr(at, end - at);
        if (!v.empty() && v.front() == '"')
            v = v.substr(1, v.size() - 2);
        return v;
    };
    while (std::getline(lines, line)) {
        std::string ph = field("ph");
        if (ph != "B" && ph != "E")
            continue;
        ++events;
        int tid = std::stoi(field("tid"));
        if (ph == "B") {
            ++depth[tid];
            if (field("name") == "cycle") {
                ++cycles_spans;
                EXPECT_EQ(tid, 0);  // only worker 0 carries cycles
            }
        } else {
            --depth[tid];
            EXPECT_GE(depth[tid], 0) << "E without B on tid " << tid;
        }
    }
    EXPECT_GT(events, 0u);
    EXPECT_GT(cycles_spans, 0u);
    for (const auto &[tid, d] : depth)
        EXPECT_EQ(d, 0) << "unclosed span on tid " << tid;
}
