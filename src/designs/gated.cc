/**
 * @file
 * Clock-gated compute bank — the activity-guard A/B benchmark design.
 * A small free-running modulo counter raises `en` one cycle in
 * `period`; each of `units` state registers feeds a heavy
 * combinational pipeline (`rounds` of xorshift-multiply) whose result
 * is latched only while `en` is high. The unit states therefore
 * change on one cycle per period, and on every other cycle the heavy
 * cones are combinationally idle: an activity-guarded engine skips
 * them, an always-eval engine grinds through them for an unchanged
 * answer. The control counter itself stays tiny so the guarded
 * residue is a few instructions per cycle.
 */

#include "designs/designs.hh"

#include "designs/common.hh"
#include "util/strcat.hh"

namespace parendi::designs {

using namespace rtl;

Netlist
makeGated(const GatedConfig &cfg)
{
    if (cfg.units == 0)
        fatal("makeGated: need at least one unit");
    if (cfg.period < 2)
        fatal("makeGated: period must be at least 2 cycles");
    Design d(strCat("gated", cfg.units));

    // Control: the counter is the only state that changes every
    // cycle. The enable is REGISTERED (as a real clock gate's enable
    // is): the activity sweep's value-precise cut points are the
    // latched registers, so a registered enable re-dirties the unit
    // muxes only on the two toggle cycles per period, where a
    // combinational `ctr == K-1` would re-mark them every cycle
    // (the producer group executes every cycle and successor marking
    // is unconditional; see DESIGN.md "Activity-aware execution").
    RegId ctr = d.reg("ctr", 8, 0);
    Wire c = d.read(ctr);
    Wire wrap = eqConst(d, c, cfg.period - 1);
    d.next(ctr, d.mux(wrap, d.lit(8, 0), c + d.lit(8, 1)));
    RegId enReg = d.reg("en", 1, 0);
    d.next(enReg, wrap);
    Wire en = d.read(enReg);

    std::vector<Wire> states;
    states.reserve(cfg.units);
    for (uint32_t i = 0; i < cfg.units; ++i) {
        RegId s = d.reg(strCat("u", i), 32,
                        0x2545f491u ^ (i * 0x9e3779b9u + 1));
        Wire cur = d.read(s);
        Wire x = cur;
        for (uint32_t r = 0; r < cfg.rounds; ++r) {
            x = x ^ x.shl(13);
            x = x ^ x.shr(17);
            x = x ^ x.shl(5);
            x = x * d.lit(32, 0x2545f491u + 2 * r);
        }
        d.next(s, d.mux(en, x, cur));
        states.push_back(cur);
    }
    // One observable digest over all unit states; its xor tree only
    // re-evaluates on the cycle after an enable pulse.
    d.output("digest",
             reduceTree(states, [](Wire a, Wire b) { return a ^ b; }));
    d.output("en", en);
    return d.finish();
}

} // namespace parendi::designs
