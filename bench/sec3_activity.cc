/**
 * @file
 * Paper §3's design decision: full-cycle (activity-oblivious)
 * simulation vs activity-aware simulation. "Full-cycle simulators
 * perform better — sometimes by orders of magnitude — as the cost of
 * tracking value changes in RTL is high." We time the reference
 * interpreter with activity-guarded evaluation off (full-cycle) and on
 * (activity-aware: combinational groups whose inputs did not change
 * are skipped), and report each design's activity factor from the
 * eval group counters: groups run / groups total.
 *
 * Expected shape: RTL activity is high (most designs run well over
 * half their groups every cycle), so the tracking overhead makes
 * activity-aware evaluation no faster than full-cycle on most designs;
 * only idle-heavy designs such as the clock-gated bank pay it back.
 */

#include "bench_common.hh"

#include <chrono>

#include "obs/counters.hh"
#include "rtl/interp.hh"

using namespace parendi;
using namespace parendi::bench;
using Clock = std::chrono::steady_clock;

namespace {

double
stepSeconds(rtl::Interpreter &sim, uint64_t cycles)
{
    auto t0 = Clock::now();
    sim.step(cycles);
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

int
main()
{
    setQuiet(true);
    const uint64_t cycles = fastMode() ? 400 : 2000;
    Table t({"design", "activity", "full-cycle kHz", "activity-aware kHz",
             "full/aware"});
    int full_wins = 0, total = 0;
    for (const char *name : {"pico", "rocket", "bitcoin", "mc", "vta",
                             "sr2", "sr3", "gated"}) {
        rtl::Netlist nl = makeDesign(name);
        rtl::Interpreter full(nl);
        rtl::Interpreter aware(std::move(nl));
        if (!aware.setActivity(true))
            fatal("%s: no activity plan", name);

        double full_s = stepSeconds(full, cycles);
        double aware_s = stepSeconds(aware, cycles);

        // The activity factor, counted on a further run so the
        // counters never weigh on the timed one.
        aware.enableProfiling();
        aware.step(cycles);
        obs::Counters &c = aware.profiler()->counters();
        const double groups =
            static_cast<double>(c.get(obs::kEvalGroupsTotal).value());
        const double skipped =
            static_cast<double>(c.get(obs::kEvalGroupsSkipped).value());
        const double activity = groups > 0 ? 1.0 - skipped / groups : 1.0;

        double full_khz = cycles / full_s / 1e3;
        double aware_khz = cycles / aware_s / 1e3;
        ++total;
        if (full_khz > aware_khz)
            ++full_wins;
        t.row().cell(name).cell(activity, 3)
            .cell(full_khz, 1).cell(aware_khz, 1)
            .cell(full_khz / aware_khz, 2);
    }
    t.print("§3: full-cycle vs activity-aware simulation (host "
            "wall-clock, reference interpreter)");
    std::printf("\nfull-cycle wins on %d of %d designs. Designs that "
                "run most of their groups every cycle pay the change "
                "tracking for nothing — the paper's §3 rationale; the "
                "clock-gated bank idles most groups, which is the "
                "low-activity-factor regime Beamer's work (paper ref "
                "[14]) targets.\n",
                full_wins, total);
    return 0;
}
