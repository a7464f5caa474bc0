/**
 * @file
 * Gang simulation (--replicas N) tests: an R-lane engine must behave
 * as R fully independent instances of the design. Every lane is
 * differentially fuzzed against its own scalar reference interpreter
 * under distinct per-lane stimuli (random netlists with colliding
 * write ports included), lane writes must never leak into other lanes,
 * the scalar API must keep broadcast/lane-0 semantics, and gang state
 * must survive reset and checkpoint/restore. Covered engines: the
 * gang interpreter (the gather/scatter correctness path), the
 * lane-vectorized cgen kernels, and both sharded engines (par and
 * ipu).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/engine.hh"
#include "core/session.hh"
#include "designs/designs.hh"
#include "random_netlist.hh"
#include "rtl/cgen.hh"
#include "rtl/interp.hh"
#include "rtl/opt.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "x86/parallel.hh"

using namespace parendi;
using parendi::testing::randomNetlist;
using parendi::testing::RandomNetlistConfig;
using rtl::BitVec;
using rtl::CgenInterpreter;
using rtl::CgenOptions;
using rtl::Interpreter;
using rtl::Netlist;

namespace {

RandomNetlistConfig
gangFuzzConfig()
{
    // Inputs for per-lane stimuli; wide values and several memories so
    // the multi-word strided paths and colliding write ports are hit.
    RandomNetlistConfig cfg;
    cfg.inputs = 4;
    cfg.maxWidth = 160;
    cfg.memories = 3;
    return cfg;
}

/** Compare one lane of @p gang against a scalar reference engine:
 *  every register, output and memory entry. */
void
compareLane(const core::SimEngine &gang, const core::SimEngine &ref,
            uint32_t lane, const char *what)
{
    const Netlist &nl = gang.netlist();
    for (rtl::RegId r = 0; r < nl.numRegisters(); ++r) {
        const std::string &name = nl.reg(r).name;
        ASSERT_EQ(gang.peekRegisterLane(name, lane),
                  ref.peekRegister(name))
            << what << ": lane " << lane << " reg " << name;
    }
    for (rtl::PortId o = 0; o < nl.numOutputs(); ++o) {
        const std::string &name = nl.output(o).name;
        ASSERT_EQ(gang.peekLane(name, lane), ref.peek(name))
            << what << ": lane " << lane << " output " << name;
    }
    for (rtl::MemId m = 0; m < nl.numMemories(); ++m) {
        const rtl::Memory &mem = nl.mem(m);
        for (uint32_t e = 0; e < mem.depth; ++e)
            ASSERT_EQ(gang.peekMemoryLane(mem.name, e, lane),
                      ref.peekMemory(mem.name, e))
                << what << ": lane " << lane << " " << mem.name << "["
                << e << "]";
    }
}

/**
 * The core differential: step @p gang (R lanes) in lock-step with R
 * independent reference interpreters, driving DISTINCT per-lane input
 * values each poke round, and require every lane bit-identical to its
 * own reference at every checkpoint.
 */
void
checkLaneIsolation(const Netlist &nl, core::SimEngine &gang,
                   int cycles, int checkEvery, uint64_t seed,
                   const char *what)
{
    const uint32_t lanes = gang.replicas();
    std::vector<std::unique_ptr<Interpreter>> refs;
    for (uint32_t l = 0; l < lanes; ++l)
        refs.push_back(std::make_unique<Interpreter>(
            nl, rtl::LowerOptions::none()));

    Rng rng(seed);
    for (int c = 0; c < cycles; ++c) {
        if (c % 3 == 0 && nl.numInputs() > 0) {
            // One input, a different value per lane.
            rtl::PortId in = static_cast<rtl::PortId>(
                rng.below(nl.numInputs()));
            const std::string &name = nl.input(in).name;
            uint16_t w = nl.input(in).width;
            for (uint32_t l = 0; l < lanes; ++l) {
                BitVec v(w, rng.next() + l * 0x9e37ull);
                gang.pokeLane(name, v, l);
                refs[l]->poke(name, v);
            }
        }
        gang.step(1);
        for (uint32_t l = 0; l < lanes; ++l)
            refs[l]->step(1);
        if (c % checkEvery != checkEvery - 1 && c != cycles - 1)
            continue;
        for (uint32_t l = 0; l < lanes; ++l)
            compareLane(gang, *refs[l], l, what);
    }
}

} // namespace

// -- Per-lane differential fuzz ------------------------------------------

class GangFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(GangFuzz, InterpreterLanesMatchIndependentReferences)
{
    Netlist nl = randomNetlist(GetParam(), gangFuzzConfig());
    Interpreter gang(nl, rtl::LowerOptions{}, 4);
    checkLaneIsolation(nl, gang, 24, 8, GetParam() * 31 + 7,
                       "gang interp");
}

TEST_P(GangFuzz, CgenLanesMatchIndependentReferences)
{
    uint64_t seed = GetParam();
    if (seed % 2)
        return; // subsample: one JIT compile per seed
    Netlist nl = randomNetlist(seed, gangFuzzConfig());
    CgenOptions copt;
    copt.lanes = 4;
    CgenInterpreter gang(nl, rtl::LowerOptions{}, copt);
    ASSERT_TRUE(gang.native()) << "JIT unavailable in test environment";
    ASSERT_EQ(gang.replicas(), 4u);
    checkLaneIsolation(nl, gang, 24, 8, seed * 131 + 3, "gang cgen");
}

INSTANTIATE_TEST_SUITE_P(Seeds, GangFuzz,
                         ::testing::Range<uint64_t>(1, 7));

TEST(Gang, ParallelEngineLanesMatchIndependentReferences)
{
    Netlist nl = randomNetlist(5, gangFuzzConfig());
    rtl::ParConfig pcfg;
    pcfg.maxWorkers = 4;
    pcfg.replicas = 4;
    rtl::ParallelInterpreter gang(nl, 4, rtl::LowerOptions{}, pcfg);
    ASSERT_GE(gang.numShards(), 2u);
    ASSERT_EQ(gang.replicas(), 4u);
    checkLaneIsolation(nl, gang, 24, 8, 0xabcdef, "gang par");
}

TEST(Gang, ParallelEngineWithNativeKernelsLanesMatch)
{
    Netlist nl = randomNetlist(9, gangFuzzConfig());
    rtl::ParConfig pcfg;
    pcfg.maxWorkers = 4;
    pcfg.replicas = 4;
    rtl::ParallelInterpreter gang(nl, 4, rtl::LowerOptions{}, pcfg);
    ASSERT_EQ(gang.enableNativeKernels(), gang.numShards());
    checkLaneIsolation(nl, gang, 24, 8, 0x5eed5, "gang par-cgen");
}

TEST(Gang, IpuEngineWithActivityLanesMatch)
{
    // The ipu engine takes gang lanes, activity and host workers from
    // the sharded driver it shares with par.
    const Netlist designs[] = {designs::makeSr(4),
                               randomNetlist(11, gangFuzzConfig())};
    for (const Netlist &nl : designs) {
        core::EngineOptions opt;
        opt.kind = core::EngineKind::Ipu;
        opt.activity = true;
        opt.replicas = 2;
        opt.threads = 2;
        auto gang = core::makeEngine(Netlist(nl), opt);
        ASSERT_STREQ(gang->engineName(), "ipu");
        ASSERT_EQ(gang->replicas(), 2u);
        EXPECT_TRUE(gang->setActivity(true)) << nl.name();
        EXPECT_TRUE(gang->activityEnabled()) << nl.name();
        checkLaneIsolation(nl, *gang, 24, 8, 0x1b0, "gang ipu");
    }
}

TEST(Gang, IpuEngineKeepsDeadInputs)
{
    // ipu runs the netlist as given, like par, interp and cgen: an
    // input nothing reads (which the optimizer would drop) can still
    // be poked, lane by lane.
    const Netlist nl = randomNetlist(11, gangFuzzConfig());
    ASSERT_LT(nl.findInput("in2"), nl.numInputs());
    const Netlist opt = rtl::optimize(nl);
    ASSERT_EQ(opt.findInput("in2"), opt.numInputs())
        << "in2 is no longer dead; pick another seed";

    core::EngineOptions eopt;
    eopt.kind = core::EngineKind::Ipu;
    eopt.replicas = 2;
    eopt.threads = 2;
    auto gang = core::makeEngine(Netlist(nl), eopt);
    ASSERT_EQ(gang->netlist().numInputs(), nl.numInputs());
    Interpreter ref0(nl), ref1(nl);
    const uint16_t w = nl.input(nl.findInput("in2")).width;
    for (int c = 0; c < 8; ++c) {
        const BitVec v0(w, 0x51u + c), v1(w, 0xa7u * (c + 1));
        gang->pokeLane("in2", v0, 0);
        gang->pokeLane("in2", v1, 1);
        ref0.poke("in2", v0);
        ref1.poke("in2", v1);
        gang->step(1);
        ref0.step(1);
        ref1.step(1);
    }
    compareLane(*gang, ref0, 0, "ipu dead input");
    compareLane(*gang, ref1, 1, "ipu dead input");
}

// -- Lane isolation under targeted writes --------------------------------

TEST(Gang, PokeOneLaneDoesNotDisturbOthers)
{
    Netlist nl = randomNetlist(2, gangFuzzConfig());
    Interpreter gang(nl, rtl::LowerOptions{}, 8);
    gang.step(5);

    // Snapshot every lane's observable state.
    const std::string in = nl.input(0).name;
    std::vector<std::vector<BitVec>> before(8);
    for (uint32_t l = 0; l < 8; ++l) {
        for (rtl::PortId o = 0; o < nl.numOutputs(); ++o)
            before[l].push_back(gang.peekLane(nl.output(o).name, l));
        for (rtl::RegId r = 0; r < nl.numRegisters(); ++r)
            before[l].push_back(
                gang.peekRegisterLane(nl.reg(r).name, l));
    }

    // Poke only lane 3; without a clock edge, no other lane's state
    // or outputs may move.
    gang.pokeLane(in, BitVec(nl.input(0).width, 0x1234abcdull), 3);
    for (uint32_t l = 0; l < 8; ++l) {
        if (l == 3)
            continue;
        size_t k = 0;
        for (rtl::PortId o = 0; o < nl.numOutputs(); ++o)
            ASSERT_EQ(gang.peekLane(nl.output(o).name, l),
                      before[l][k++])
                << "lane " << l << " output moved on a lane-3 poke";
        for (rtl::RegId r = 0; r < nl.numRegisters(); ++r)
            ASSERT_EQ(gang.peekRegisterLane(nl.reg(r).name, l),
                      before[l][k++])
                << "lane " << l << " reg moved on a lane-3 poke";
    }
}

TEST(Gang, ScalarPokeBroadcastsAndScalarPeekReadsLaneZero)
{
    // Under identical (scalar) stimuli a gang run must reproduce the
    // scalar run bit-for-bit in EVERY lane — existing harnesses keep
    // working unchanged on gang engines.
    Netlist nl = randomNetlist(4, gangFuzzConfig());
    Interpreter scalar(nl);
    Interpreter gang(nl, rtl::LowerOptions{}, 4);
    const std::string in = nl.input(0).name;
    Rng rng(77);
    for (int c = 0; c < 20; ++c) {
        BitVec v(nl.input(0).width, rng.next());
        scalar.poke(in, v);
        gang.poke(in, v); // broadcast
        scalar.step(1);
        gang.step(1);
    }
    for (rtl::PortId o = 0; o < nl.numOutputs(); ++o) {
        const std::string &name = nl.output(o).name;
        BitVec expect = scalar.peek(name);
        EXPECT_EQ(gang.peek(name), expect) << name; // lane-0 read
        for (uint32_t l = 0; l < 4; ++l)
            EXPECT_EQ(gang.peekLane(name, l), expect)
                << name << " lane " << l;
    }
}

TEST(Gang, LaneIndexOutOfRangeIsFatal)
{
    Netlist nl = randomNetlist(1, gangFuzzConfig());
    Interpreter gang(nl, rtl::LowerOptions{}, 2);
    EXPECT_THROW(gang.peekLane(nl.output(0).name, 2), FatalError);
    EXPECT_THROW(
        gang.pokeLane(nl.input(0).name, BitVec(nl.input(0).width, 1), 5),
        FatalError);
}

// -- Reset and checkpoint survival ---------------------------------------

TEST(Gang, StateSurvivesResetAndCheckpoint)
{
    Netlist nl = randomNetlist(6, gangFuzzConfig());
    Interpreter gang(nl, rtl::LowerOptions{}, 4);
    const std::string in = nl.input(0).name;

    // Diverge the lanes, checkpoint, run on, restore: every lane must
    // come back to its own diverged state.
    for (uint32_t l = 0; l < 4; ++l)
        gang.pokeLane(in, BitVec(nl.input(0).width, 0x100 + l), l);
    gang.step(10);

    std::vector<BitVec> at10;
    for (uint32_t l = 0; l < 4; ++l)
        for (rtl::PortId o = 0; o < nl.numOutputs(); ++o)
            at10.push_back(gang.peekLane(nl.output(o).name, l));

    std::stringstream ckpt;
    core::saveCheckpoint(gang, ckpt);
    gang.step(9);
    core::restoreCheckpoint(gang, ckpt);
    size_t k = 0;
    for (uint32_t l = 0; l < 4; ++l)
        for (rtl::PortId o = 0; o < nl.numOutputs(); ++o)
            ASSERT_EQ(gang.peekLane(nl.output(o).name, l), at10[k++])
                << "lane " << l << " after restore";

    // reset() must take every lane back to the common initial state.
    gang.reset();
    Interpreter fresh(nl, rtl::LowerOptions{}, 4);
    for (uint32_t l = 0; l < 4; ++l)
        for (rtl::PortId o = 0; o < nl.numOutputs(); ++o)
            ASSERT_EQ(gang.peekLane(nl.output(o).name, l),
                      fresh.peekLane(nl.output(o).name, l))
                << "lane " << l << " after reset";
}

TEST(Gang, CgenStateSurvivesResetAndCheckpoint)
{
    Netlist nl = randomNetlist(8, gangFuzzConfig());
    CgenOptions copt;
    copt.lanes = 4;
    CgenInterpreter gang(nl, rtl::LowerOptions{}, copt);
    ASSERT_TRUE(gang.native());
    const std::string in = nl.input(0).name;

    for (uint32_t l = 0; l < 4; ++l)
        gang.pokeLane(in, BitVec(nl.input(0).width, 0xbeef + l), l);
    gang.step(8);

    std::stringstream ckpt;
    core::saveCheckpoint(gang, ckpt);
    std::vector<BitVec> snap;
    for (uint32_t l = 0; l < 4; ++l)
        for (rtl::RegId r = 0; r < nl.numRegisters(); ++r)
            snap.push_back(gang.peekRegisterLane(nl.reg(r).name, l));

    gang.step(6);
    core::restoreCheckpoint(gang, ckpt);
    size_t k = 0;
    for (uint32_t l = 0; l < 4; ++l)
        for (rtl::RegId r = 0; r < nl.numRegisters(); ++r)
            ASSERT_EQ(gang.peekRegisterLane(nl.reg(r).name, l),
                      snap[k++])
                << "lane " << l << " after restore";

    // The native kernels must keep running correctly after the
    // restore rewrote lane storage.
    Interpreter ref(nl, rtl::LowerOptions::none(), 4);
    // Mirror the diverged pokes and history in the reference gang.
    for (uint32_t l = 0; l < 4; ++l)
        ref.pokeLane(in, BitVec(nl.input(0).width, 0xbeef + l), l);
    ref.step(8);
    gang.step(5);
    ref.step(5);
    for (uint32_t l = 0; l < 4; ++l)
        for (rtl::RegId r = 0; r < nl.numRegisters(); ++r)
            ASSERT_EQ(gang.peekRegisterLane(nl.reg(r).name, l),
                      ref.peekRegisterLane(nl.reg(r).name, l))
                << "lane " << l << " after restore + step";
}

TEST(Gang, ParallelCheckpointRoundTripsAllLanes)
{
    Netlist nl = randomNetlist(10, gangFuzzConfig());
    rtl::ParConfig pcfg;
    pcfg.maxWorkers = 4;
    pcfg.replicas = 4;
    rtl::ParallelInterpreter gang(nl, 4, rtl::LowerOptions{}, pcfg);
    const std::string in = nl.input(0).name;
    for (uint32_t l = 0; l < 4; ++l)
        gang.pokeLane(in, BitVec(nl.input(0).width, 0x40 + l), l);
    gang.step(7);

    std::stringstream ckpt;
    core::saveCheckpoint(gang, ckpt);
    std::vector<BitVec> snap;
    for (uint32_t l = 0; l < 4; ++l)
        for (rtl::PortId o = 0; o < nl.numOutputs(); ++o)
            snap.push_back(gang.peekLane(nl.output(o).name, l));
    gang.step(4);
    core::restoreCheckpoint(gang, ckpt);
    size_t k = 0;
    for (uint32_t l = 0; l < 4; ++l)
        for (rtl::PortId o = 0; o < nl.numOutputs(); ++o)
            ASSERT_EQ(gang.peekLane(nl.output(o).name, l), snap[k++])
                << "lane " << l << " after restore";
}

// -- Directed design sanity ----------------------------------------------

TEST(Gang, PicoGangMatchesScalarInEveryLane)
{
    Netlist nl = designs::makePico(designs::defaultCoreConfig());
    Interpreter scalar(nl);
    CgenOptions copt;
    copt.lanes = 8;
    CgenInterpreter gang(nl, rtl::LowerOptions{}, copt);
    ASSERT_TRUE(gang.native());
    scalar.step(300);
    gang.step(300);
    for (uint32_t l = 0; l < 8; ++l) {
        ASSERT_EQ(gang.peekLane("pc", l), scalar.peek("pc"))
            << "lane " << l;
        ASSERT_EQ(gang.peekLane("probe", l), scalar.peek("probe"))
            << "lane " << l;
    }
}

