/**
 * @file
 * Directed micro-programs hammering specific corners of the pico and
 * rocket cores: branch chains, shift-amount masking, load/store
 * aliasing, register-zero behaviour, halt-at-the-edge, and back-to-
 * back writes to one register — each checked against the golden ISA
 * model on both cores.
 */

#include <gtest/gtest.h>

#include "designs/cores.hh"
#include "designs/isa.hh"
#include "rtl/interp.hh"
#include "util/strcat.hh"

using namespace parendi;
using namespace parendi::designs;
using rtl::Interpreter;
using rtl::Netlist;

namespace {

constexpr uint32_t kRom = 64, kRam = 64;

struct Program
{
    const char *name;
    std::vector<uint32_t> code;
};

std::vector<Program>
directedPrograms()
{
    std::vector<Program> ps;
    // Branch ladder: alternating taken/not-taken conditionals.
    ps.push_back({"branch_ladder", {
        asmAddi(1, 0, 5),
        asmAddi(2, 0, 5),
        asmBeq(1, 2, 2),      // taken
        asmAddi(3, 0, 99),    // skipped
        asmBne(1, 2, 2),      // not taken
        asmAddi(4, 0, 7),     // executed
        asmBne(1, 0, 2),      // taken (r1 != r0)
        asmAddi(4, 4, 100),   // skipped
        asmAdd(5, 4, 1),
        asmHalt(),
    }});
    // Shift amounts at and beyond the 5-bit mask.
    ps.push_back({"shift_masking", {
        asmLui(1, 0x8000),    // r1 = 0x80000000
        asmAddi(2, 0, 31),
        asmSrl(3, 1, 2),      // >> 31 -> 1
        asmAddi(2, 0, 32),    // 32 & 31 == 0
        asmSrl(4, 1, 2),      // >> 0 -> unchanged
        asmAddi(2, 0, 33),    // 33 & 31 == 1
        asmSll(5, 1, 2),      // << 1 -> wraps to 0
        asmHalt(),
    }});
    // Store then load through the same address (memory aliasing).
    ps.push_back({"store_load_alias", {
        asmAddi(1, 0, 9),     // address
        asmAddi(2, 0, 1234),
        asmSw(1, 2, 0),       // ram[9] = 1234
        asmLw(3, 1, 0),       // r3 = ram[9]
        asmAddi(2, 0, 4321),
        asmSw(1, 2, 0),       // overwrite
        asmLw(4, 1, 0),       // r4 = 4321
        asmAdd(5, 3, 4),
        asmHalt(),
    }});
    // Repeated writes to one register in close succession.
    ps.push_back({"waw_chain", {
        asmAddi(7, 0, 1),
        asmAddi(7, 7, 1),
        asmAddi(7, 7, 1),
        asmAddi(7, 7, 1),
        asmAddi(7, 7, 1),
        asmSll(7, 7, 7),      // r7 <<= (5 & 31)
        asmHalt(),
    }});
    // Negative immediates and wraparound arithmetic.
    ps.push_back({"negatives", {
        asmAddi(1, 0, -1),    // 0xffffffff
        asmAddi(2, 1, 1),     // 0
        asmSub(3, 2, 1),      // 1
        asmAddi(4, 0, -32768),
        asmSub(5, 0, 4),      // +32768
        asmHalt(),
    }});
    // JAL chain computing a call-like pattern.
    ps.push_back({"jal_chain", {
        asmJal(1, 2),         // -> 2, r1 = 1
        asmHalt(),            // final landing
        asmJal(2, 2),         // -> 4, r2 = 3
        asmHalt(),
        asmJal(3, -3),        // -> 1 (halt), r3 = 5
    }});
    return ps;
}

void
runBoth(const Program &p)
{
    // Golden model.
    std::vector<uint32_t> rom = p.code;
    while (rom.size() < kRom)
        rom.push_back(asmHalt());
    IsaSim gold(rom, kRam);
    gold.run(100000);
    ASSERT_TRUE(gold.halted()) << p.name;

    for (int core = 0; core < 2; ++core) {
        CoreConfig cfg;
        cfg.romDepth = kRom;
        cfg.ramDepth = kRam;
        cfg.program = p.code;
        Netlist nl = core ? makeRocket(cfg) : makePico(cfg);
        Interpreter sim(std::move(nl));
        uint64_t guard = 0;
        while (sim.peek("halted").isZero() && guard++ < 100000)
            sim.step();
        ASSERT_LT(guard, 100000u) << p.name;
        sim.step(8); // drain
        for (unsigned i = 0; i < 16; ++i)
            EXPECT_EQ(sim.peekRegister(strCat("x", i))
                          .toUint64(),
                      gold.reg(i))
                << p.name << (core ? " rocket" : " pico") << " x" << i;
        for (uint32_t i = 0; i < kRam; ++i)
            EXPECT_EQ(sim.peekMemory("ram", i).toUint64(),
                      gold.ram(i))
                << p.name << " ram[" << i << "]";
        EXPECT_EQ(sim.peek("pc").toUint64(), gold.pc()) << p.name;
    }
}

} // namespace

class DirectedPrograms : public ::testing::TestWithParam<size_t>
{
};

TEST_P(DirectedPrograms, BothCoresMatchGolden)
{
    runBoth(directedPrograms()[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(
    All, DirectedPrograms, ::testing::Range<size_t>(0, 6),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return directedPrograms()[info.param].name;
    });

TEST(DirectedPrograms, PerfCountersCount)
{
    // instret must equal the golden instruction count; the branch
    // monitor must have seen every conditional branch.
    auto prog = programSum(20);
    std::vector<uint32_t> rom = prog;
    while (rom.size() < kRom)
        rom.push_back(asmHalt());
    IsaSim gold(rom, kRam);
    uint64_t instrs = gold.run(100000);

    CoreConfig cfg;
    cfg.romDepth = kRom;
    cfg.ramDepth = kRam;
    cfg.program = prog;
    Interpreter sim(makePico(cfg));
    while (sim.peek("halted").isZero())
        sim.step();
    // pico retires one instruction per 4 cycles; instret counts
    // retired instructions including the halt.
    EXPECT_EQ(sim.peekRegister("csr_instret").toUint64(), instrs);
    uint64_t hits = sim.peekRegister("bp_hits").toUint64();
    uint64_t miss = sim.peekRegister("bp_miss").toUint64();
    // programSum(20) executes its bne 20 times.
    EXPECT_EQ(hits + miss, 20u);
    // 4 cycles per instruction exactly (the halt latches at its WB).
    EXPECT_EQ(sim.peekRegister("csr_cycle").toUint64(), 4 * instrs);
}
