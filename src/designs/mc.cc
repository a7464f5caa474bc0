/**
 * @file
 * Monte Carlo option-price engine (stand-in for the FPGA Monte-Carlo
 * financial engine of paper §6, "mc"). `lanes` independent price paths
 * evolve in Q16.16 fixed point under a xorshift-driven random walk;
 * each path runs `stepsPerPath` steps, contributes its call payoff
 * max(S-K, 0) to a per-lane accumulator, and restarts. A global adder
 * tree exposes the running payoff sum.
 */

#include "designs/designs.hh"

#include "designs/common.hh"
#include "util/strcat.hh"

namespace parendi::designs {

using namespace rtl;

Netlist
makeMc(const McConfig &cfg)
{
    if (cfg.lanes == 0 || cfg.stepsPerPath == 0)
        fatal("makeMc: bad configuration");
    Design d(strCat("mc", cfg.lanes));

    // Global step counter shared by all lanes.
    uint32_t cnt_w = 16;
    RegId step = d.reg("step", cnt_w, 0);
    Wire step_v = d.read(step);
    Wire path_done = eqConst(d, step_v, cfg.stepsPerPath - 1);
    d.next(step, d.mux(path_done, d.lit(cnt_w, 0),
                       step_v + d.lit(cnt_w, 1)));

    RegId paths = d.reg("paths", 32, 0);
    d.next(paths, d.mux(path_done, d.read(paths) + d.lit(32, 1),
                        d.read(paths)));

    std::vector<Wire> accs;
    Wire strike = d.lit(32, cfg.strike);
    for (uint32_t lane = 0; lane < cfg.lanes; ++lane) {
        std::string px = strCat("l", lane, "_");
        RegId rng = d.reg(px + "rng", 32,
                          0x2545f491u ^ (lane * 0x9e3779b9u + 7));
        RegId price = d.reg(px + "price", 32, cfg.spot);
        RegId acc = d.reg(px + "acc", 32, 0);

        // xorshift32 step.
        Wire r = d.read(rng);
        r = r ^ r.shl(13);
        r = r ^ r.shr(17);
        r = r ^ r.shl(5);
        d.next(rng, r);

        // Random walk: S' = S + (S * noise) >> 12 where noise is a
        // small signed value from the RNG low byte with upward drift.
        Wire s = d.read(price);
        Wire noise = r.slice(0, 8).sext(32) + d.lit(32, 2);
        Wire delta = (s * noise).sra(d.lit(32, 12));
        Wire stepped = s + delta;
        d.next(price, d.mux(path_done, d.lit(32, cfg.spot), stepped));

        // Payoff at path end: max(S - K, 0).
        Wire itm = strike.ult(stepped);
        Wire payoff = d.mux(itm, stepped - strike, d.lit(32, 0));
        Wire a = d.read(acc);
        d.next(acc, d.mux(path_done, a + payoff, a));
        accs.push_back(d.read(acc));
    }

    Wire total = reduceTree(accs, [](Wire a, Wire b) { return a + b; });
    d.output("payoff_sum", total);
    d.output("paths", d.read(paths));
    return d.finish();
}

} // namespace parendi::designs
