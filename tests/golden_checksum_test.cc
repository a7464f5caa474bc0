/**
 * @file
 * Golden-checksum regression for the design generators: every
 * generator in src/designs/ is simulated for a fixed number of cycles
 * and an FNV-1a digest of all architectural state (registers, outputs,
 * memories) is compared against a locked constant. The digest is
 * computed with both the fused and the fully generic interpreter, so
 * this doubles as an end-to-end differential for the lowering stage —
 * and it pins the generators themselves: an accidental change to any
 * design's behaviour shows up as a checksum mismatch even if every
 * engine still agrees with every other engine.
 *
 * If a change is *intentional*, regenerate the constants:
 *   ./build/tests/golden_checksum_test --gtest_also_run_disabled_tests \
 *       --gtest_filter='*PrintChecksums*'
 * and paste the printed table below.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "designs/designs.hh"
#include "rtl/cgen.hh"
#include "rtl/interp.hh"

using namespace parendi;
using rtl::BitVec;
using rtl::Interpreter;
using rtl::Netlist;

namespace {

constexpr int kCycles = 64;

void
fnv(uint64_t &h, uint64_t v)
{
    // 64-bit FNV-1a, one byte at a time so word boundaries matter.
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

void
fnvBits(uint64_t &h, const BitVec &v)
{
    fnv(h, v.width());
    for (uint32_t i = 0; i < v.numWords(); ++i)
        fnv(h, v.word(i));
}

uint64_t
stateChecksum(const Interpreter &in)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const Netlist &nl = in.netlist();
    for (rtl::RegId r = 0; r < nl.numRegisters(); ++r)
        fnvBits(h, in.peekRegister(nl.reg(r).name));
    for (rtl::PortId o = 0; o < nl.numOutputs(); ++o)
        fnvBits(h, in.peek(nl.output(o).name));
    for (rtl::MemId m = 0; m < nl.numMemories(); ++m)
        for (uint32_t e = 0; e < nl.mem(m).depth; ++e)
            fnvBits(h, in.peekMemory(nl.mem(m).name, e));
    return h;
}

uint64_t
runChecksum(Netlist nl, const rtl::LowerOptions &lower)
{
    Interpreter in(std::move(nl), lower);
    in.step(kCycles);
    return stateChecksum(in);
}

struct GoldenCase
{
    const char *name;
    Netlist (*make)();
    uint64_t checksum;
};

Netlist mkPrng() { return designs::makePrngBank(8); }
Netlist mkPico() { return designs::makePico(designs::defaultCoreConfig()); }
Netlist mkRocket() { return designs::makeRocket(designs::defaultCoreConfig()); }
Netlist mkBitcoin() { return designs::makeBitcoin({2, 16}); }
Netlist mkMc() { return designs::makeMc({8, 16, 100 << 16, 105 << 16}); }
Netlist mkVta() { return designs::makeVta({4, 4, 16}); }
Netlist mkSr2() { return designs::makeSr(2); }
Netlist mkLr2() { return designs::makeLr(2); }

// Locked digests of every generator after kCycles cycles. These are
// load-bearing constants: regenerate only for an intentional design
// change (see the file comment).
const GoldenCase kGolden[] = {
    {"prng", mkPrng, 0x1adbfd743283df17ull},
    {"pico", mkPico, 0x5edad94a04f31f50ull},
    {"rocket", mkRocket, 0xb6392d936379d6aeull},
    {"bitcoin", mkBitcoin, 0x62c55e4cf2923964ull},
    {"mc", mkMc, 0xd2f35656f12e1f5full},
    {"vta", mkVta, 0x4a06737291df9594ull},
    {"sr2", mkSr2, 0x3ea0bf0f8c240ea4ull},
    {"lr2", mkLr2, 0x221ea09d5372ae40ull},
};

} // namespace

class GoldenChecksum : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenChecksum, FusedInterpreterMatchesLockedValue)
{
    const GoldenCase &c = GetParam();
    uint64_t got = runChecksum(c.make(), rtl::LowerOptions{});
    EXPECT_EQ(got, c.checksum)
        << c.name << ": fused checksum 0x" << std::hex << got;
}

TEST_P(GoldenChecksum, GenericInterpreterMatchesLockedValue)
{
    const GoldenCase &c = GetParam();
    uint64_t got = runChecksum(c.make(), rtl::LowerOptions::none());
    EXPECT_EQ(got, c.checksum)
        << c.name << ": generic checksum 0x" << std::hex << got;
}

TEST_P(GoldenChecksum, CgenEngineMatchesLockedValue)
{
    // The JIT-compiled engine must reproduce the same locked digest as
    // both interpreters. (Native execution is asserted so a silently
    // broken toolchain cannot pass by falling back.)
    const GoldenCase &c = GetParam();
    rtl::CgenInterpreter in(c.make());
    ASSERT_TRUE(in.native()) << c.name << ": JIT unavailable";
    in.step(kCycles);
    uint64_t got = stateChecksum(in);
    EXPECT_EQ(got, c.checksum)
        << c.name << ": cgen checksum 0x" << std::hex << got;
}

INSTANTIATE_TEST_SUITE_P(Designs, GoldenChecksum,
                         ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<GoldenCase> &i) {
                             return std::string(i.param.name);
                         });

// Regeneration helper, excluded from normal runs (see file comment).
TEST(GoldenChecksumTool, DISABLED_PrintChecksums)
{
    for (const GoldenCase &c : kGolden)
        std::printf("    {\"%s\", mk?, 0x%016llxull},\n", c.name,
                    static_cast<unsigned long long>(
                        runChecksum(c.make(), rtl::LowerOptions{})));
}
