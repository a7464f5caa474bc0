/**
 * @file
 * A random netlist generator for property/fuzz tests: produces
 * well-formed designs with random-width registers, memories with
 * multiple ports, and a random mix of every combinational operator,
 * so the interpreter-vs-machine equivalence tests explore circuit
 * shapes no hand-written design would.
 */

#ifndef PARENDI_TESTS_RANDOM_NETLIST_HH
#define PARENDI_TESTS_RANDOM_NETLIST_HH

#include <vector>

#include "rtl/dsl.hh"
#include "util/rng.hh"
#include "util/strcat.hh"

namespace parendi::testing {

struct RandomNetlistConfig
{
    uint32_t registers = 12;
    uint32_t memories = 2;
    uint32_t combNodes = 120;
    uint32_t outputs = 3;
    uint16_t maxWidth = 96;
    /** Input ports mixed into the combinational pool (0 keeps the
     *  historical netlists for a given seed byte-identical). Tests
     *  that drive per-lane stimuli (gang simulation) need inputs. */
    uint32_t inputs = 0;
};

inline rtl::Netlist
randomNetlist(uint64_t seed, const RandomNetlistConfig &cfg =
                                 RandomNetlistConfig{})
{
    using namespace rtl;
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 12345);
    Design d(strCat("fuzz", seed));

    auto rand_width = [&]() -> uint16_t {
        // Bias toward interesting widths: 1, word-boundary and odd.
        switch (rng.below(6)) {
          case 0: return 1;
          case 1: return 32;
          case 2: return 64;
          case 3: return 65;
          default:
            return static_cast<uint16_t>(1 + rng.below(cfg.maxWidth));
        }
    };

    std::vector<RegId> regs;
    std::vector<Wire> pool; // every value created so far
    for (uint32_t i = 0; i < cfg.registers; ++i) {
        uint16_t w = rand_width();
        RegId r = d.reg(strCat("r", i), w, rng.next());
        regs.push_back(r);
        pool.push_back(d.read(r));
    }
    std::vector<MemId> mems;
    for (uint32_t i = 0; i < cfg.memories; ++i) {
        uint16_t w = rand_width();
        uint32_t depth = 4u << rng.below(4); // 4..32 entries
        mems.push_back(
            d.memory(strCat("m", i), w, depth));
    }
    pool.push_back(d.lit(32, rng.next()));
    pool.push_back(d.lit(1, 1));
    for (uint32_t i = 0; i < cfg.inputs; ++i)
        pool.push_back(d.input(strCat("in", i), rand_width()));

    auto pick = [&]() { return pool[rng.below(pool.size())]; };
    auto pick_w = [&](uint16_t w) { return pick().resize(w); };

    for (uint32_t i = 0; i < cfg.combNodes; ++i) {
        Wire a = pick();
        Wire out;
        switch (rng.below(14)) {
          case 0: out = a + pick_w(a.width()); break;
          case 1: out = a - pick_w(a.width()); break;
          case 2: out = a & pick_w(a.width()); break;
          case 3: out = a | pick_w(a.width()); break;
          case 4: out = a ^ pick_w(a.width()); break;
          case 5:
            out = a.width() <= 64 ? a * pick_w(a.width()) : ~a;
            break;
          case 6: out = a << pick_w(8); break;
          case 7: out = a >> pick_w(8); break;
          case 8: out = a.sra(pick_w(8)); break;
          case 9: out = d.mux(pick_w(1), a, pick_w(a.width())); break;
          case 10: {
            uint16_t w2 = static_cast<uint16_t>(
                1 + rng.below(std::min<uint32_t>(
                    a.width() + 32, rtl::kMaxWidth - a.width())));
            out = a.concat(pick_w(w2));
            break;
          }
          case 11: {
            uint16_t sw = static_cast<uint16_t>(
                1 + rng.below(a.width()));
            uint32_t lsb = static_cast<uint32_t>(
                rng.below(a.width() - sw + 1));
            out = a.slice(lsb, sw);
            break;
          }
          case 12:
            out = rng.below(2) ? a.ult(pick_w(a.width()))
                               : a.slt(pick_w(a.width()));
            break;
          default: {
            MemId m = mems[rng.below(mems.size())];
            out = d.memRead(m, pick_w(8));
            break;
          }
        }
        pool.push_back(out);
    }

    // Drive every register and add some memory write ports.
    for (RegId r : regs)
        d.next(r, pick_w(d.netlist().reg(r).width));
    for (MemId m : mems) {
        // Up to three ports, and about half of them reuse one shared
        // address wire so several enabled ports hit the same entry in
        // the same cycle. MemWrite ports commit in creation order
        // (netlist.hh), i.e. the last enabled port wins; generating
        // collisions on purpose keeps every engine honest about that.
        uint32_t ports = 1 + rng.below(3);
        Wire shared_addr = pick_w(8);
        for (uint32_t p = 0; p < ports; ++p) {
            Wire addr = rng.below(2) ? shared_addr : pick_w(8);
            // Constant-true enables guarantee the collision actually
            // fires instead of depending on a random 1-bit wire.
            Wire en = rng.below(4) == 0 ? d.lit(1, 1) : pick_w(1);
            d.memWrite(m, addr, pick_w(d.netlist().mem(m).width), en);
        }
    }
    for (uint32_t i = 0; i < cfg.outputs; ++i)
        d.output(strCat("o", i), pick());
    return d.finish();
}

} // namespace parendi::testing

#endif // PARENDI_TESTS_RANDOM_NETLIST_HH
