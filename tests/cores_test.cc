/**
 * @file
 * Differential tests of the pico (multicycle) and rocket (pipelined)
 * RTL cores against the IsaSim golden model: canned programs plus a
 * parameterized sweep of random programs. After the core halts, the
 * complete architectural state (16 registers + data RAM + pc) must
 * match the ISA-level simulation exactly.
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

constexpr uint32_t kRomDepth = 64;
constexpr uint32_t kRamDepth = 64;

CoreConfig
configFor(std::vector<uint32_t> prog)
{
    CoreConfig cfg;
    cfg.romDepth = kRomDepth;
    cfg.ramDepth = kRamDepth;
    cfg.program = std::move(prog);
    return cfg;
}

/** Pad the program to ROM depth with HALTs like the RTL does. */
std::vector<uint32_t>
paddedRom(const std::vector<uint32_t> &prog)
{
    std::vector<uint32_t> rom = prog;
    while (rom.size() < kRomDepth)
        rom.push_back(asmHalt());
    return rom;
}

/** Run the RTL to the halt state (bounded), then compare all
 *  architectural state with the golden model. */
void
compareWithGolden(const Netlist &nl, const std::vector<uint32_t> &prog,
                  uint64_t max_cycles)
{
    Interpreter rtl_sim(nl);
    IsaSim gold(paddedRom(prog), kRamDepth);
    gold.run(1000000);
    ASSERT_TRUE(gold.halted()) << "golden model did not halt";

    uint64_t cycles = 0;
    while (rtl_sim.peek("halted").isZero() && cycles < max_cycles) {
        rtl_sim.step();
        ++cycles;
    }
    ASSERT_LT(cycles, max_cycles) << "RTL did not halt";

    // Let any in-flight writeback settle (pipeline drain).
    rtl_sim.step(8);

    EXPECT_EQ(rtl_sim.peek("pc").toUint64(), gold.pc());
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(rtl_sim.peekRegister(strCat("x", i))
                      .toUint64(),
                  gold.reg(i))
            << "x" << i;
    for (uint32_t i = 0; i < kRamDepth; ++i)
        EXPECT_EQ(rtl_sim.peekMemory("ram", i).toUint64(), gold.ram(i))
            << "ram[" << i << "]";
}

} // namespace

// ---- pico ---------------------------------------------------------------

TEST(Pico, SumProgram)
{
    auto prog = programSum(10);
    compareWithGolden(makePico(configFor(prog)), prog, 100000);
}

TEST(Pico, MemoryProgram)
{
    auto prog = programMemory();
    compareWithGolden(makePico(configFor(prog)), prog, 200000);
}

TEST(Pico, TakesFourCyclesPerInstruction)
{
    auto prog = programSum(3);
    Interpreter sim(makePico(configFor(prog)));
    IsaSim gold(paddedRom(prog), kRamDepth);
    uint64_t instrs = gold.run(1000);
    uint64_t cycles = 0;
    while (sim.peek("halted").isZero() && cycles < 10000) {
        sim.step();
        ++cycles;
    }
    // 4 cycles per instruction (halted latches at the HALT's WB, the
    // 4th cycle of the instrs-th instruction).
    EXPECT_EQ(cycles, 4 * instrs);
}

TEST(Pico, ChurnMatchesGoldenStepwise)
{
    // A non-halting program: compare RAM snapshots periodically.
    auto prog = programChurn();
    Interpreter sim(makePico(configFor(prog)));
    IsaSim gold(paddedRom(prog), kRamDepth);
    for (int chunk = 0; chunk < 5; ++chunk) {
        sim.step(4 * 200);
        gold.run(200);
        for (uint32_t i = 0; i < kRamDepth; ++i)
            EXPECT_EQ(sim.peekMemory("ram", i).toUint64(), gold.ram(i))
                << "chunk " << chunk << " ram[" << i << "]";
    }
}

class PicoRandom : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PicoRandom, MatchesGolden)
{
    auto prog = programRandom(GetParam(), 40);
    compareWithGolden(makePico(configFor(prog)), prog, 100000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PicoRandom,
                         ::testing::Range<uint64_t>(1, 21));

// ---- rocket -------------------------------------------------------------

TEST(Rocket, SumProgram)
{
    auto prog = programSum(10);
    compareWithGolden(makeRocket(configFor(prog)), prog, 100000);
}

TEST(Rocket, MemoryProgram)
{
    auto prog = programMemory();
    compareWithGolden(makeRocket(configFor(prog)), prog, 200000);
}

TEST(Rocket, WithMultiplierMatchesGolden)
{
    auto prog = programMemory();
    compareWithGolden(makeRocket(configFor(prog), true), prog, 200000);
}

TEST(Rocket, FasterThanPico)
{
    // The pipeline should beat 4 cycles per instruction on a long
    // straight-line-ish workload.
    auto prog = programSum(50);
    Interpreter rocket(makeRocket(configFor(prog)));
    IsaSim gold(paddedRom(prog), kRamDepth);
    uint64_t instrs = gold.run(100000);
    uint64_t cycles = 0;
    while (rocket.peek("halted").isZero() && cycles < 100000) {
        rocket.step();
        ++cycles;
    }
    EXPECT_LT(cycles, 4 * instrs) << "pipeline slower than multicycle";
}

TEST(Rocket, HazardStress)
{
    // Back-to-back dependencies, load-use, branches into dependent
    // code: the classic pipeline hazard corners.
    std::vector<uint32_t> prog = {
        asmAddi(1, 0, 7),
        asmAdd(2, 1, 1),     // RAW on r1 (ALU-use)
        asmAdd(3, 2, 1),     // RAW on r2
        asmSw(0, 3, 5),      // ram[5] = r3
        asmLw(4, 0, 5),      // load
        asmAdd(5, 4, 4),     // load-use hazard
        asmBne(5, 0, 2),     // taken branch
        asmAddi(6, 0, 99),   // squashed
        asmAddi(7, 5, 1),    // branch target
        asmSub(8, 7, 5),     // RAW right after redirect
        asmHalt(),
    };
    compareWithGolden(makeRocket(configFor(prog)), prog, 10000);
}

class RocketRandom : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RocketRandom, MatchesGolden)
{
    auto prog = programRandom(GetParam(), 40);
    compareWithGolden(makeRocket(configFor(prog)), prog, 100000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RocketRandom,
                         ::testing::Range<uint64_t>(1, 21));

class RocketMulRandom : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RocketMulRandom, MatchesGolden)
{
    auto prog = programRandom(GetParam() + 100, 40);
    compareWithGolden(makeRocket(configFor(prog), true), prog, 100000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RocketMulRandom,
                         ::testing::Range<uint64_t>(1, 6));
