/**
 * @file
 * Fuzzing the whole stack: random netlists are compiled for random
 * machine shapes and must simulate bit-identically to the reference
 * interpreter; they must also survive a PNL round trip and behave
 * identically afterwards.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "frontend/pnl.hh"
#include "random_netlist.hh"
#include "rtl/interp.hh"
#include "util/rng.hh"

using namespace parendi;
using parendi::testing::randomNetlist;
using rtl::Interpreter;
using rtl::Netlist;

namespace {

void
compareAllState(core::Simulation &sim, Interpreter &ref)
{
    const Netlist &nl = ref.netlist();
    for (rtl::RegId r = 0; r < nl.numRegisters(); ++r) {
        const std::string &name = nl.reg(r).name;
        ASSERT_EQ(sim.machine().peekRegister(name),
                  ref.peekRegister(name)) << name;
    }
    for (rtl::PortId o = 0; o < nl.numOutputs(); ++o) {
        const std::string &name = nl.output(o).name;
        ASSERT_EQ(sim.machine().peek(name), ref.peek(name)) << name;
    }
    for (rtl::MemId m = 0; m < nl.numMemories(); ++m) {
        const rtl::Memory &mem = nl.mem(m);
        for (uint32_t e = 0; e < mem.depth; ++e)
            ASSERT_EQ(sim.machine().peekMemory(mem.name, e),
                      ref.peekMemory(mem.name, e))
                << mem.name << "[" << e << "]";
    }
}

void
compareInterpreters(Interpreter &a, Interpreter &b, const char *what)
{
    const Netlist &nl = a.netlist();
    for (rtl::RegId r = 0; r < nl.numRegisters(); ++r) {
        const std::string &name = nl.reg(r).name;
        ASSERT_EQ(a.peekRegister(name), b.peekRegister(name))
            << what << ": reg " << name;
    }
    for (rtl::PortId o = 0; o < nl.numOutputs(); ++o) {
        const std::string &name = nl.output(o).name;
        ASSERT_EQ(a.peek(name), b.peek(name))
            << what << ": output " << name;
    }
    for (rtl::MemId m = 0; m < nl.numMemories(); ++m) {
        const rtl::Memory &mem = nl.mem(m);
        for (uint32_t e = 0; e < mem.depth; ++e)
            ASSERT_EQ(a.peekMemory(mem.name, e),
                      b.peekMemory(mem.name, e))
                << what << ": " << mem.name << "[" << e << "]";
    }
}

/**
 * Three-way differential for the lowering pass: the fused interpreter,
 * the specialized-but-unfused interpreter, and the fully generic one
 * must agree bit-for-bit, and so must the selective-evaluation
 * witness: an interpreter with activity-guarded evaluation on, which
 * skips every group whose inputs did not change.
 */
void
checkLoweringEquivalence(const Netlist &nl, int cycles, int checkEvery)
{
    Interpreter fused(nl);                                // default: full
    rtl::LowerOptions specOnly;
    specOnly.fuse = false;
    Interpreter specialized(nl, specOnly);
    Interpreter generic(nl, rtl::LowerOptions::none());
    Interpreter active(nl);

    ASSERT_TRUE(fused.program().lowered);
    ASSERT_FALSE(generic.program().lowered);
    ASSERT_TRUE(active.setActivity(true));

    for (int c = 0; c < cycles; ++c) {
        fused.step();
        specialized.step();
        generic.step();
        active.step();
        if (c % checkEvery != checkEvery - 1 && c != cycles - 1)
            continue;
        compareInterpreters(fused, generic, "fused vs generic");
        compareInterpreters(fused, specialized, "fused vs specialized");
        compareInterpreters(active, generic, "activity vs generic");
    }
}

} // namespace

class FuzzEquiv : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzEquiv, MachineMatchesInterpreter)
{
    uint64_t seed = GetParam();
    Netlist nl = randomNetlist(seed);
    Interpreter ref(nl);

    Rng rng(seed ^ 0x51ed);
    core::CompilerOptions opt;
    opt.chips = 1u + static_cast<uint32_t>(rng.below(4));
    opt.tilesPerChip = 2u + static_cast<uint32_t>(rng.below(32));
    auto sim = core::compile(std::move(nl), opt);

    for (int c = 0; c < 30; ++c) {
        sim->step();
        ref.step();
    }
    compareAllState(*sim, ref);
}

TEST_P(FuzzEquiv, SurvivesPnlRoundTrip)
{
    uint64_t seed = GetParam();
    Netlist nl = randomNetlist(seed);
    Netlist reparsed = frontend::parsePnl(frontend::writePnl(nl));
    Interpreter a(std::move(nl));
    Interpreter b(std::move(reparsed));
    a.step(25);
    b.step(25);
    const Netlist &na = a.netlist();
    for (rtl::RegId r = 0; r < na.numRegisters(); ++r)
        ASSERT_EQ(a.peekRegister(na.reg(r).name),
                  b.peekRegister(na.reg(r).name));
}

TEST_P(FuzzEquiv, HypergraphStrategyMatches)
{
    uint64_t seed = GetParam();
    if (seed % 3) // subsample: the H strategy is the slow path
        return;
    Netlist nl = randomNetlist(seed);
    Interpreter ref(nl);
    core::CompilerOptions opt;
    opt.single = partition::SingleChipStrategy::Hypergraph;
    opt.tilesPerChip = 16;
    auto sim = core::compile(std::move(nl), opt);
    sim->step(20);
    ref.step(20);
    compareAllState(*sim, ref);
}

TEST_P(FuzzEquiv, LoweredMatchesGenericAndEventWitness)
{
    uint64_t seed = GetParam();
    checkLoweringEquivalence(randomNetlist(seed), 40, 8);
}

TEST_P(FuzzEquiv, LoweredMatchesOnWideAndMemoryHeavyCircuits)
{
    uint64_t seed = GetParam();
    if (seed % 2) // subsample: these circuits are bigger
        return;
    parendi::testing::RandomNetlistConfig cfg;
    cfg.maxWidth = 192;   // bias toward multi-word (>64-bit) values
    cfg.memories = 4;     // more colliding write ports
    cfg.registers = 16;
    cfg.combNodes = 160;
    checkLoweringEquivalence(randomNetlist(seed ^ 0x51deull, cfg), 30, 10);
}

TEST_P(FuzzEquiv, MachineMatchesUnfusedInterpreter)
{
    // The partitioned machine lowers its tile programs by default;
    // check it against the *generic* interpreter so a bug common to
    // all lowered programs cannot mask itself.
    uint64_t seed = GetParam();
    if (seed % 3 != 1) // subsample: compile is the slow part
        return;
    Netlist nl = randomNetlist(seed);
    Interpreter ref(nl, rtl::LowerOptions::none());
    core::CompilerOptions opt;
    opt.tilesPerChip = 12;
    auto sim = core::compile(std::move(nl), opt);
    sim->step(25);
    ref.step(25);
    compareAllState(*sim, ref);
}

TEST_P(FuzzEquiv, MachineUnloweredMatchesFusedInterpreter)
{
    // And the transpose: an unlowered machine against the fused
    // interpreter.
    uint64_t seed = GetParam();
    if (seed % 3 != 2) // subsample
        return;
    Netlist nl = randomNetlist(seed);
    Interpreter ref(nl);
    core::CompilerOptions opt;
    opt.tilesPerChip = 12;
    opt.lower = rtl::LowerOptions::none();
    auto sim = core::compile(std::move(nl), opt);
    sim->step(25);
    ref.step(25);
    compareAllState(*sim, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquiv,
                         ::testing::Range<uint64_t>(1, 25));

TEST(FuzzEquiv, LargerCircuitsAndLongerRuns)
{
    parendi::testing::RandomNetlistConfig cfg;
    cfg.registers = 40;
    cfg.combNodes = 500;
    cfg.memories = 4;
    for (uint64_t seed : {101ull, 202ull}) {
        Netlist nl = randomNetlist(seed, cfg);
        Interpreter ref(nl);
        core::CompilerOptions opt;
        opt.chips = 2;
        opt.tilesPerChip = 24;
        auto sim = core::compile(std::move(nl), opt);
        sim->step(200);
        ref.step(200);
        compareAllState(*sim, ref);
    }
}
