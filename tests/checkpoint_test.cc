/**
 * @file
 * Checkpoint/restore tests: save mid-simulation, continue, restore,
 * and re-run — the continuation must be bit-identical; corrupted and
 * mismatched checkpoints must be rejected.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "core/compiler.hh"
#include "core/session.hh"
#include "designs/designs.hh"
#include "random_netlist.hh"
#include "rtl/interp.hh"
#include "util/logging.hh"

using namespace parendi;
using parendi::testing::randomNetlist;
using rtl::Interpreter;
using rtl::Netlist;

TEST(Checkpoint, InterpreterRoundTrip)
{
    Interpreter sim(designs::makeBitcoin({1, 16}));
    sim.step(77);
    std::stringstream snap;
    core::saveCheckpoint(sim, snap);
    uint64_t cyc = sim.cycles();

    sim.step(53); // diverge
    rtl::BitVec later = sim.peekRegister("e0_a");

    std::stringstream snap2(snap.str());
    core::restoreCheckpoint(sim, snap2);
    EXPECT_EQ(sim.cycles(), cyc);
    sim.step(53); // replay
    EXPECT_EQ(sim.peekRegister("e0_a"), later);
}

TEST(Checkpoint, RestoreIntoFreshInterpreter)
{
    Interpreter a(designs::makeSr(2));
    a.step(120);
    std::stringstream snap;
    core::saveCheckpoint(a, snap);

    Interpreter b(designs::makeSr(2));
    core::restoreCheckpoint(b, snap);
    EXPECT_EQ(b.cycles(), 120u);
    a.step(40);
    b.step(40);
    EXPECT_EQ(a.peek("tx_total"), b.peek("tx_total"));
    EXPECT_EQ(a.peek("rx_total"), b.peek("rx_total"));
}

TEST(Checkpoint, MachineRoundTrip)
{
    core::CompilerOptions opt;
    opt.chips = 2;
    opt.tilesPerChip = 24;
    auto sim = core::compile(designs::makeSr(2), opt);
    sim->step(60);
    std::stringstream snap;
    core::saveCheckpoint(sim->machine(), snap);
    sim->step(25);
    rtl::BitVec later = sim->machine().peek("rx_total");

    core::restoreCheckpoint(sim->machine(), snap);
    EXPECT_EQ(sim->machine().cycles(), 60u);
    sim->step(25);
    EXPECT_EQ(sim->machine().peek("rx_total"), later);
}

TEST(Checkpoint, MachineAgreesWithInterpreterAfterRestore)
{
    Netlist nl = randomNetlist(99);
    Interpreter ref(nl);
    core::CompilerOptions opt;
    opt.tilesPerChip = 12;
    auto sim = core::compile(std::move(nl), opt);
    sim->step(30);
    ref.step(30);
    std::stringstream snap;
    core::saveCheckpoint(sim->machine(), snap);
    core::restoreCheckpoint(sim->machine(), snap);
    sim->step(30);
    ref.step(30);
    const Netlist &n2 = ref.netlist();
    for (rtl::RegId r = 0; r < n2.numRegisters(); ++r)
        ASSERT_EQ(sim->machine().peekRegister(n2.reg(r).name),
                  ref.peekRegister(n2.reg(r).name));
}

TEST(Checkpoint, RejectsCorruptAndMismatched)
{
    Interpreter a(designs::makePrngBank(4));
    std::stringstream snap;
    core::saveCheckpoint(a, snap);

    // Truncated stream.
    std::string full = snap.str();
    std::stringstream trunc(full.substr(0, full.size() / 2));
    EXPECT_THROW(core::restoreCheckpoint(a, trunc), FatalError);

    // A checkpoint from a different design.
    Interpreter b(designs::makePrngBank(16));
    std::stringstream snap_a(full);
    EXPECT_THROW(core::restoreCheckpoint(b, snap_a), FatalError);
}

// ---- Versioned checkpoint envelope (core/session.hh) ----

TEST(CheckpointEnvelope, HeaderedRoundTrip)
{
    Interpreter sim(designs::makeSr(2));
    sim.step(90);
    std::stringstream snap;
    core::saveCheckpoint(sim, snap);

    // The envelope leads with the magic, version and design hash.
    std::string blob = snap.str();
    ASSERT_GE(blob.size(), 20u);
    uint64_t magic;
    std::memcpy(&magic, blob.data(), sizeof(magic));
    EXPECT_EQ(magic, core::kCheckpointMagic);
    uint32_t version;
    std::memcpy(&version, blob.data() + 8, sizeof(version));
    EXPECT_EQ(version, core::kCheckpointVersion);
    uint64_t hash;
    std::memcpy(&hash, blob.data() + 12, sizeof(hash));
    EXPECT_EQ(hash, rtl::netlistHash(sim.netlist()));

    sim.step(33);
    rtl::BitVec later = sim.peek("tx_total");
    std::stringstream snap2(blob);
    core::restoreCheckpoint(sim, snap2);
    EXPECT_EQ(sim.cycles(), 90u);
    sim.step(33);
    EXPECT_EQ(sim.peek("tx_total"), later);
}

TEST(CheckpointEnvelope, RejectsHeaderlessV0Blob)
{
    // The pre-envelope format (a cycle count followed by raw state
    // words) is no longer read: restoreCheckpoint names the cut-off
    // and leaves the engine untouched. The same state as v2 restores.
    Interpreter a(designs::makeSr(2));
    a.step(55);
    std::string raw(8 * 64, '\0');
    uint64_t cycles = a.cycles();
    std::memcpy(raw.data(), &cycles, sizeof(cycles));

    Interpreter b(designs::makeSr(2));
    b.step(3);
    rtl::BitVec before = b.peek("tx_total");
    std::stringstream in(raw);
    try {
        core::restoreCheckpoint(b, in);
        FAIL() << "headerless blob must be rejected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("v0"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(b.cycles(), 3u);
    EXPECT_EQ(b.peek("tx_total"), before);

    std::stringstream v2;
    core::saveCheckpoint(a, v2);
    core::restoreCheckpoint(b, v2);
    EXPECT_EQ(b.cycles(), 55u);
    a.step(20);
    b.step(20);
    EXPECT_EQ(a.peek("tx_total"), b.peek("tx_total"));
}

TEST(CheckpointEnvelope, RejectsWrongDesignWithClearError)
{
    Interpreter a(designs::makeSr(2));
    std::stringstream snap;
    core::saveCheckpoint(a, snap);

    Interpreter b(designs::makeSr(4));
    std::stringstream snap2(snap.str());
    try {
        core::restoreCheckpoint(b, snap2);
        FAIL() << "mismatched design must be rejected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("different design"),
                  std::string::npos);
    }
}

TEST(CheckpointEnvelope, RejectsUnknownVersion)
{
    // Everything but a v2 envelope is rejected with an error that
    // names the one version this build reads — never a crash, and
    // never a partial restore.
    Interpreter a(designs::makeSr(2));
    a.step(12);
    std::stringstream snap;
    core::saveCheckpoint(a, snap);
    const std::string blob = snap.str();
    auto stamped = [&](uint32_t version) {
        std::string b = blob;
        std::memcpy(b.data() + 8, &version, sizeof(version));
        return b;
    };
    // A headerless run of raw words, as the old v0 format wrote.
    std::string words;
    for (uint64_t w = 0; w < 32; ++w)
        words.append(reinterpret_cast<const char *>(&w), sizeof(w));

    const std::pair<const char *, std::string> cases[] = {
        {"empty stream", ""},
        {"7 bytes", blob.substr(0, 7)},
        {"raw words", words},
        {"version 0", stamped(0)},
        {"version 1", stamped(1)},
        {"future version", stamped(core::kCheckpointVersion + 7)},
    };
    for (const auto &[what, input] : cases) {
        Interpreter dst(designs::makeSr(2));
        std::stringstream in(input);
        try {
            core::restoreCheckpoint(dst, in);
            ADD_FAILURE() << what << " must be rejected";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("only version 2"),
                      std::string::npos)
                << what << ": " << e.what();
        }
        EXPECT_EQ(dst.cycles(), 0u) << what;
    }
}

TEST(CheckpointEnvelope, SessionHandleFacade)
{
    core::SessionHandle session(
        std::make_unique<Interpreter>(designs::makeSr(2)), "sr2");
    EXPECT_EQ(session.designName(), "sr2");
    EXPECT_EQ(session.designHash(),
              rtl::netlistHash(session.engine().netlist()));

    session.step(42);
    EXPECT_EQ(session.cycles(), 42u);
    std::stringstream snap;
    session.checkpoint(snap);
    session.step(13);
    rtl::BitVec later = session.engine().peek("rx_total");
    session.restore(snap);
    EXPECT_EQ(session.cycles(), 42u);
    session.step(13);
    EXPECT_EQ(session.engine().peek("rx_total"), later);
}
