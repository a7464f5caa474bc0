/**
 * @file
 * Multithreaded differential fuzz for the BSP host runtime: the
 * pooled IpuMachine and ParallelInterpreter (one ShardEngine driver)
 * must be bit-identical to the reference interpreter at every tested
 * thread count, over random netlists whose colliding write ports make
 * any ordering bug in the parallel commit phase observable. Also checks
 * the host-facing extras (poke, reset, checkpoint) of the new engine
 * and the BspPool itself.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "ckpt/snapshot.hh"
#include "core/compiler.hh"
#include "core/engine.hh"
#include "core/session.hh"
#include "designs/designs.hh"
#include "random_netlist.hh"
#include "rtl/interp.hh"
#include "util/bsp_pool.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "x86/parallel.hh"

using namespace parendi;
using parendi::testing::randomNetlist;
using parendi::testing::RandomNetlistConfig;
using rtl::Interpreter;
using rtl::Netlist;
using rtl::ParallelInterpreter;

namespace {

/** Random netlists with extra memories -> more colliding ports. */
RandomNetlistConfig
collidingConfig()
{
    RandomNetlistConfig cfg;
    cfg.registers = 16;
    cfg.memories = 4;
    cfg.combNodes = 150;
    return cfg;
}

void
compareAllState(core::SimEngine &sim, Interpreter &ref,
                const char *what)
{
    const Netlist &nl = ref.netlist();
    for (rtl::RegId r = 0; r < nl.numRegisters(); ++r) {
        const std::string &name = nl.reg(r).name;
        ASSERT_EQ(sim.peekRegister(name), ref.peekRegister(name))
            << what << ": reg " << name;
    }
    for (rtl::PortId o = 0; o < nl.numOutputs(); ++o) {
        const std::string &name = nl.output(o).name;
        ASSERT_EQ(sim.peek(name), ref.peek(name))
            << what << ": output " << name;
    }
    for (rtl::MemId m = 0; m < nl.numMemories(); ++m) {
        const rtl::Memory &mem = nl.mem(m);
        for (uint32_t e = 0; e < mem.depth; ++e)
            ASSERT_EQ(sim.peekMemory(mem.name, e),
                      ref.peekMemory(mem.name, e))
                << what << ": " << mem.name << "[" << e << "]";
    }
}

/**
 * Batch-shape differential against the reference interpreter, at par@1
 * (the in-place cycle) and par@{2,4} (the fused superstep): odd and
 * even batch lengths (the publish-buffer parity flips), pokes between
 * batches, and mid-run checkpoint and reset intrusions (which
 * invalidate the publish buffers).
 */
void
checkBatchShapes(const Netlist &nl, uint64_t seed)
{
    Rng rng(seed ^ 0xba7c);
    auto pokeAll = [&](core::SimEngine &a, core::SimEngine &b) {
        for (rtl::PortId p = 0; p < nl.numInputs(); ++p) {
            const auto &in = nl.input(p);
            rtl::BitVec v(in.width, rng.next());
            a.poke(in.name, v);
            b.poke(in.name, v);
        }
    };
    for (uint32_t threads : {1u, 2u, 4u}) {
        Interpreter ref(nl);
        rtl::ParConfig pcfg;
        pcfg.maxWorkers = threads;
        pcfg.batch = 3; // step(n) splits into odd-length batches
        ParallelInterpreter par(nl, threads, rtl::LowerOptions{}, pcfg);

        for (size_t batch : {size_t{1}, size_t{3}, size_t{16}}) {
            pokeAll(ref, par);
            ref.step(batch);
            par.step(batch);
            compareAllState(par, ref, "batch");
        }

        // Checkpoint round-trip mid-run: restore must re-publish
        // before the next fused batch.
        std::stringstream snap;
        core::saveCheckpoint(par, snap);
        par.step(5);
        core::restoreCheckpoint(par, snap);
        pokeAll(ref, par);
        ref.step(5);
        par.step(5);
        compareAllState(par, ref, "after restore");

        // Reset mid-run, then another odd/even batch mix.
        ref.reset();
        par.reset();
        ref.step(7);
        par.step(7);
        pokeAll(ref, par);
        ref.step(4);
        par.step(4);
        compareAllState(par, ref, "after reset");
    }
}

} // namespace

class ParallelEquiv : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ParallelEquiv, ParallelInterpreterMatchesReference)
{
    uint64_t seed = GetParam();
    Netlist nl = randomNetlist(seed, collidingConfig());
    Interpreter ref(nl);
    ref.step(40);
    for (uint32_t threads : {1u, 2u, 8u}) {
        // Pin real shards/workers: the default clamp to hardware
        // concurrency would serialize this on small CI hosts.
        rtl::ParConfig pcfg;
        pcfg.maxWorkers = threads;
        ParallelInterpreter par(nl, threads, rtl::LowerOptions{},
                                pcfg);
        par.step(40);
        compareAllState(par, ref, "par");
    }
}

TEST_P(ParallelEquiv, PooledMachineMatchesReference)
{
    uint64_t seed = GetParam();
    if (seed % 2) // subsample: compile is the slow part
        return;
    Netlist nl = randomNetlist(seed, collidingConfig());
    Interpreter ref(nl);
    ref.step(40);
    for (uint32_t threads : {1u, 2u, 8u}) {
        core::CompilerOptions opt;
        opt.tilesPerChip = 24;
        opt.threads = threads;
        opt.exec.maxWorkers = threads;
        auto sim = core::compile(Netlist(nl), opt);
        sim->step(40);
        compareAllState(sim->machine(), ref, "ipu");
    }
}

TEST_P(ParallelEquiv, BatchShapesMatchReference)
{
    uint64_t seed = GetParam();
    RandomNetlistConfig cfg = collidingConfig();
    cfg.inputs = 2;
    checkBatchShapes(randomNetlist(seed, cfg), seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquiv,
                         ::testing::Range<uint64_t>(1, 13));

TEST(ParallelInterpreter, PokeResetAndCheckpoint)
{
    rtl::Design d("io");
    rtl::Wire a = d.input("a", 16);
    auto acc = d.reg("acc", 16, 0);
    auto other = d.reg("other", 16, 5);
    d.next(acc, d.read(acc) + a);
    d.next(other, d.read(other) ^ a);
    d.output("acc", d.read(acc));
    Netlist nl = d.finish();

    rtl::ParConfig pcfg;
    pcfg.maxWorkers = 2;
    ParallelInterpreter sim(nl, 2, rtl::LowerOptions{}, pcfg);
    sim.poke("a", uint64_t{3});
    sim.step(4);
    EXPECT_EQ(sim.peek("acc").toUint64(), 12u);

    std::stringstream snap;
    core::saveCheckpoint(sim, snap);
    sim.step(2);
    EXPECT_EQ(sim.peek("acc").toUint64(), 18u);
    core::restoreCheckpoint(sim, snap);
    EXPECT_EQ(sim.cycles(), 4u);
    EXPECT_EQ(sim.peek("acc").toUint64(), 12u);

    sim.reset();
    EXPECT_EQ(sim.cycles(), 0u);
    EXPECT_EQ(sim.peekRegister("other").toUint64(), 5u);
}

TEST(ParallelInterpreter, ShardCountClampsToFibers)
{
    // 2 sinks -> at most 2 shards no matter how many threads.
    rtl::Design d("tiny");
    auto r = d.reg("r", 8, 1);
    d.next(r, d.read(r) + d.lit(8, 1));
    d.output("o", d.read(r));
    ParallelInterpreter sim(d.finish(), 16);
    EXPECT_LE(sim.numShards(), 2u);
    sim.step(3);
    EXPECT_EQ(sim.peekRegister("r").toUint64(), 4u);
}

TEST(ParallelEquiv, BuiltinDesignsMatchReference)
{
    // Design scale, not random netlists: on sr4 and lr2 the placement
    // duplicates and cuts real shared logic, and the shard programs,
    // exchange schedule and activity guards must still reproduce the
    // reference interpreter's architectural state exactly.
    for (const char *name : {"sr4", "lr2"}) {
        Netlist nl = name[0] == 's' ? designs::makeSr(4)
                                    : designs::makeLr(2);
        Interpreter ref(nl);
        ref.step(500);
        const uint64_t want = ckpt::archStateFnv(ref);
        for (uint32_t threads : {2u, 4u}) {
            for (bool activity : {false, true}) {
                rtl::ParConfig pcfg;
                pcfg.maxWorkers = threads;
                ParallelInterpreter par(nl, threads, rtl::LowerOptions{},
                                        pcfg);
                ASSERT_EQ(par.numShards(), threads) << name;
                ASSERT_TRUE(par.setActivity(activity)) << name;
                par.step(500);
                EXPECT_EQ(ckpt::archStateFnv(par), want)
                    << name << " threads=" << threads
                    << " activity=" << activity;
            }
        }
    }
}

TEST(ParallelEquiv, BuiltinBatchShapesMatchReference)
{
    checkBatchShapes(designs::makeSr(4), 4);
    checkBatchShapes(designs::makeLr(2), 2);
}

TEST(ParallelInterpreter, PlacementAvoidsDuplicationAndCutsFewRegisters)
{
    // sr4 on 4 shards: the replication-aware placement computes little
    // shared logic twice and exchanges few register words per cycle,
    // and it is deterministic (fixed seed, canonical shard order).
    Netlist nl = designs::makeSr(4);
    Interpreter ref(nl);
    rtl::ParConfig pcfg;
    pcfg.maxWorkers = 4;
    ParallelInterpreter a(nl, 4, rtl::LowerOptions{}, pcfg);
    ParallelInterpreter b(nl, 4, rtl::LowerOptions{}, pcfg);

    const ParallelInterpreter::Placement &pl = a.placement();
    ASSERT_EQ(pl.shards, 4u);
    EXPECT_LE(static_cast<double>(pl.shardInstrs),
              1.3 * static_cast<double>(ref.program().instrs.size()));
    EXPECT_LE(static_cast<double>(pl.exchangeWords),
              0.5 * static_cast<double>(nl.numRegisters()));
    EXPECT_GE(pl.duplication(), 1.0);

    auto fields = [](const rtl::ShardSet::RegMessage &m) {
        return std::tuple(m.ownerShard, m.ownerSlot, m.readerShard,
                          m.readerSlot, m.readerReg, m.words, m.bytes,
                          m.pubOffset);
    };
    const auto &ma = a.shards().regMessages();
    const auto &mb = b.shards().regMessages();
    ASSERT_EQ(ma.size(), mb.size());
    for (size_t i = 0; i < ma.size(); ++i)
        ASSERT_EQ(fields(ma[i]), fields(mb[i])) << "message " << i;
}

TEST(ParallelEquiv, EngineFactoryBuildsEveryKind)
{
    Netlist nl = randomNetlist(7);
    Interpreter ref(nl);
    ref.step(20);
    for (const char *name : {"interp", "ipu", "par"}) {
        core::EngineOptions opt;
        opt.kind = core::parseEngineKind(name);
        opt.threads = 2;
        auto engine = core::makeEngine(Netlist(nl), opt);
        ASSERT_STREQ(engine->engineName(), name);
        engine->step(20);
        EXPECT_EQ(engine->cycles(), 20u);
        for (rtl::PortId o = 0; o < nl.numOutputs(); ++o) {
            const std::string &out = nl.output(o).name;
            ASSERT_EQ(engine->peek(out), ref.peek(out))
                << name << ": " << out;
        }
    }
    EXPECT_THROW(core::parseEngineKind("verilator"), FatalError);
    EXPECT_THROW(core::parseEngineKind("event"), FatalError);
}

TEST(BspPool, ManySuperstepsKeepWorkersInLockstep)
{
    util::BspPool pool(4);
    std::atomic<uint64_t> sum{0};
    constexpr int kSteps = 500;
    for (int s = 0; s < kSteps; ++s)
        pool.run([&](uint32_t worker) { sum.fetch_add(worker + 1); });
    // Each superstep runs every worker exactly once: 1+2+3+4 = 10.
    EXPECT_EQ(sum.load(), uint64_t{10} * kSteps);
}

TEST(ParallelInterpreter, PokeBetweenFusedBatchesIsVisible)
{
    // A poke between fused batches rewrites input replicas behind the
    // publish buffers' back; the next batch must see the new value on
    // every shard (pubValid_ invalidation), at odd and even batch
    // lengths so both buffer parities are exercised.
    rtl::Design d("pokes");
    rtl::Wire a = d.input("a", 16);
    auto acc = d.reg("acc", 16, 0);
    d.next(acc, d.read(acc) + a);
    d.output("acc", d.read(acc));
    Netlist nl = d.finish();

    rtl::ParConfig pcfg;
    pcfg.maxWorkers = 2;
    ParallelInterpreter sim(nl, 2, rtl::LowerOptions{}, pcfg);
    uint64_t expect = 0;
    uint64_t value = 1;
    for (size_t batch : {size_t{1}, size_t{3}, size_t{16},
                         size_t{4}}) {
        sim.poke("a", value);
        sim.step(batch);
        expect += value * batch;
        ASSERT_EQ(sim.peek("acc").toUint64(), expect & 0xffff)
            << "batch " << batch;
        value += 3;
    }
}

TEST(SpinBarrier, ReleasesEveryPartyEachGeneration)
{
    constexpr uint32_t kParties = 4;
    constexpr int kRounds = 300;
    util::SpinBarrier bar(kParties);
    std::atomic<uint32_t> arrived{0};
    std::vector<std::thread> threads;
    threads.reserve(kParties);
    for (uint32_t p = 0; p < kParties; ++p) {
        threads.emplace_back([&]() {
            for (int r = 0; r < kRounds; ++r) {
                arrived.fetch_add(1);
                bar.arriveAndWait();
                // All parties of round r incremented before anyone
                // passes the barrier (later rounds may have started).
                ASSERT_GE(arrived.load(),
                          kParties * static_cast<uint32_t>(r + 1));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(bar.generations(), static_cast<uint64_t>(kRounds));
    EXPECT_EQ(arrived.load(), kParties * kRounds);
}

TEST(SpinBarrier, AdaptiveBudgetStaysBoundedAndTracksWaits)
{
    util::SpinBarrier bar(1);
    const uint32_t initial = bar.spinBudget();
    EXPECT_GT(initial, 0u);
    // Long observed waits saturate the budget at its upper bound;
    // near-zero waits pull it back to the lower bound. Both bounds
    // must hold no matter how extreme the inputs.
    for (int i = 0; i < 64; ++i)
        bar.observeWaitNs(50'000'000);
    const uint32_t high = bar.spinBudget();
    EXPECT_GE(high, initial);
    for (int i = 0; i < 64; ++i)
        bar.observeWaitNs(0);
    const uint32_t low = bar.spinBudget();
    EXPECT_LE(low, high);
    EXPECT_GT(low, 0u);
    // A single party never blocks; generations still advance.
    bar.arriveAndWait();
    bar.arriveAndWait();
    EXPECT_EQ(bar.generations(), 2u);
}

namespace {

/** Counts pool-epoch wait pairs (one per worker per run()). */
struct EpochCounter final : util::BspWaitObserver
{
    std::atomic<uint32_t> begins{0};
    std::atomic<uint32_t> ends{0};
    void epochWaitBegin(uint32_t) override { begins.fetch_add(1); }
    void epochWaitEnd(uint32_t) override { ends.fetch_add(1); }
};

} // namespace

TEST(BspPool, BatchDispatchCrossesInnerBarriersInOneEpoch)
{
    // The multi-cycle batch shape: one pool.run() dispatch whose
    // workers separate k inner cycles with a SpinBarrier. The pool's
    // own epoch machinery (and its wait observer) must fire once per
    // dispatch, not once per inner cycle — that is the entire point
    // of batching.
    constexpr uint32_t kWorkers = 3;
    constexpr uint32_t kBatches = 4;
    constexpr int kInner = 17;
    // Declared before the pool: a worker still parked in its wait holds
    // the observer pointer until the pool's destructor releases it.
    EpochCounter obs;
    util::BspPool pool(kWorkers);
    pool.setWaitObserver(&obs);
    util::SpinBarrier inner(kWorkers);
    std::vector<uint64_t> perWorker(kWorkers, 0);
    for (uint32_t b = 0; b < kBatches; ++b)
        pool.run([&](uint32_t w) {
            for (int c = 0; c < kInner; ++c) {
                perWorker[w] += 1;
                inner.arriveAndWait();
            }
        });
    for (uint32_t w = 0; w < kWorkers; ++w)
        EXPECT_EQ(perWorker[w],
                  static_cast<uint64_t>(kBatches) * kInner);
    // Every inner cycle crossed the in-dispatch barrier...
    EXPECT_EQ(inner.generations(),
              static_cast<uint64_t>(kBatches) * kInner);
    // ...while the pool's epoch machinery fired one wait pair per
    // worker per *dispatch* (give or take the workers still entering
    // their next wait when run() returns) — never per inner cycle.
    EXPECT_GE(obs.ends.load(), kBatches);
    EXPECT_LE(obs.begins.load(), (kBatches + 1) * kWorkers);
    EXPECT_LT(obs.begins.load(), kBatches * kInner);
    pool.setWaitObserver(nullptr);
}

namespace {

/**
 * A multi-worker step(n) is one pool dispatch per batch: every worker
 * passes the pool's epoch machinery exactly once per batch, never once
 * per cycle or per phase. @p whole and @p batched (built with --batch
 * 3) run on @p pool, whose wait observer the test owns (a shared-pool
 * engine never installs its own).
 */
void
expectOneEpochPerBatch(const Netlist &nl, core::SimEngine &whole,
                       core::SimEngine &batched, util::BspPool &pool,
                       const EpochCounter &obs, const char *what)
{
    ASSERT_GE(dynamic_cast<rtl::ShardEngine &>(whole).numShards(), 2u)
        << what;
    ASSERT_GE(dynamic_cast<rtl::ShardEngine &>(batched).numShards(), 2u)
        << what;
    Interpreter ref(nl);

    // A worker that parked before the observer was installed reports
    // its first release to nobody; one warm-up batch re-parks it.
    whole.step(1);
    ref.step(1);
    for (size_t n : {size_t{1}, size_t{7}, size_t{64}}) {
        const uint32_t before = obs.ends.load();
        whole.step(n);
        ref.step(n);
        EXPECT_EQ(obs.ends.load() - before, pool.threads())
            << what << ": step(" << n << ")";
    }
    compareAllState(whole, ref, what);

    // With --batch 3, step(7) is three batches: 3 + 3 + 1 cycles.
    const uint32_t before = obs.ends.load();
    batched.step(7);
    EXPECT_EQ(obs.ends.load() - before, 3 * pool.threads()) << what;
}

} // namespace

TEST(ParallelEquiv, BatchIsOnePoolEpoch)
{
    Netlist nl = randomNetlist(3, collidingConfig());
    EpochCounter obs;
    auto pool = std::make_shared<util::BspPool>(2);
    pool->setWaitObserver(&obs);

    rtl::ParConfig whole;
    whole.pool = pool;
    rtl::ParConfig split = whole;
    split.batch = 3;
    ParallelInterpreter par(nl, 2, rtl::LowerOptions{}, whole);
    ParallelInterpreter parBatched(nl, 2, rtl::LowerOptions{}, split);
    ASSERT_EQ(par.numShards(), 2u);
    ASSERT_EQ(parBatched.numShards(), 2u);
    expectOneEpochPerBatch(nl, par, parBatched, *pool, obs, "par");

    // The ipu engine steps on the same driver, shared pool included.
    core::EngineOptions eopt;
    eopt.kind = core::EngineKind::Ipu;
    eopt.threads = 2;
    eopt.pool = pool;
    auto ipu = core::makeEngine(Netlist(nl), eopt);
    eopt.batch = 3;
    auto ipuBatched = core::makeEngine(Netlist(nl), eopt);
    expectOneEpochPerBatch(nl, *ipu, *ipuBatched, *pool, obs, "ipu");
    pool->setWaitObserver(nullptr);
}
