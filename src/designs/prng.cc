/**
 * @file
 * Bank of independent xorshift32 PRNGs — the synchronization-latency
 * microbenchmark of paper §4.1 (3 XORs and 3 shifts per generator,
 * one fiber each, zero inter-fiber communication).
 */

#include "designs/designs.hh"

#include "designs/common.hh"
#include "util/rng.hh"
#include "util/strcat.hh"

namespace parendi::designs {

using namespace rtl;

Netlist
makePrngBank(uint32_t n)
{
    if (n == 0)
        fatal("makePrngBank: need at least one generator");
    Design d(strCat("prng", n));
    for (uint32_t i = 0; i < n; ++i) {
        RegId s = d.reg(strCat("s", i), 32,
                        0x9e3779b9u ^ (i * 0x85ebca6bu + 1));
        Wire x = d.read(s);
        x = x ^ x.shl(13);
        x = x ^ x.shr(17);
        x = x ^ x.shl(5);
        d.next(s, x);
    }
    // A single observable so tests can sample generator 0; this adds
    // one tiny extra fiber and no inter-generator communication.
    d.output("sample", d.read(0));
    return d.finish();
}

} // namespace parendi::designs
