/**
 * @file
 * Functional tests for the benchmark design generators: the bitcoin
 * miner against a software SHA-256d, the PRNG bank against software
 * xorshift32, the Monte Carlo engine's bookkeeping, the VTA GEMM
 * datapath against a software MAC model, and the mesh NoC's flit
 * conservation invariant.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "designs/designs.hh"
#include "rtl/analysis.hh"
#include "rtl/interp.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/strcat.hh"

using namespace parendi;
using namespace parendi::designs;
using rtl::Interpreter;
using rtl::Netlist;

namespace {

// ---- Software SHA-256 (compression only, matching the RTL) ------------

const std::array<uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

const std::array<uint32_t, 8> kIv = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

uint32_t
ror(uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

std::array<uint32_t, 8>
sha256Compress(const std::array<uint32_t, 16> &block)
{
    uint32_t w[64];
    for (int i = 0; i < 16; ++i)
        w[i] = block[i];
    for (int i = 16; i < 64; ++i) {
        uint32_t s0 = ror(w[i - 15], 7) ^ ror(w[i - 15], 18) ^
            (w[i - 15] >> 3);
        uint32_t s1 = ror(w[i - 2], 17) ^ ror(w[i - 2], 19) ^
            (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::array<uint32_t, 8> h = kIv;
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
        uint32_t s1 = ror(e, 6) ^ ror(e, 11) ^ ror(e, 25);
        uint32_t ch = (e & f) ^ (~e & g);
        uint32_t t1 = hh + s1 + ch + kK[i] + w[i];
        uint32_t s0 = ror(a, 2) ^ ror(a, 13) ^ ror(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t t2 = s0 + maj;
        hh = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }
    return {h[0] + a, h[1] + b, h[2] + c, h[3] + d,
            h[4] + e, h[5] + f, h[6] + g, h[7] + hh};
}

/** The fixed header used by the miner RTL (word 3 = nonce). */
std::array<uint32_t, 16>
minerHeader(uint32_t nonce)
{
    std::array<uint32_t, 16> h = {
        0x02000000, 0x17975b97, 0xc18ed1f7, nonce,
        0x8a97295a, 0x2247e5a0, 0xb3c4f126, 0xe9d4a713,
        0x80000000, 0x00000000, 0x00000000, 0x00000000,
        0x00000000, 0x00000000, 0x00000000, 0x00000200};
    return h;
}

/** SHA-256d exactly as the miner computes it. */
std::array<uint32_t, 8>
minerSha256d(uint32_t nonce)
{
    std::array<uint32_t, 8> first = sha256Compress(minerHeader(nonce));
    std::array<uint32_t, 16> second = {};
    for (int i = 0; i < 8; ++i)
        second[i] = first[i];
    second[8] = 0x80000000;
    second[15] = 256;
    return sha256Compress(second);
}

} // namespace

TEST(Prng, MatchesSoftwareXorshift)
{
    Interpreter sim(makePrngBank(8));
    uint32_t sw = 0x9e3779b9u ^ 1u; // generator 0's seed
    for (int i = 0; i < 200; ++i) {
        sim.step();
        sw = xorshift32(sw);
        ASSERT_EQ(sim.peek("sample").toUint64(), sw) << "cycle " << i;
    }
}

TEST(Prng, GeneratorsAreIndependentFibers)
{
    Netlist nl = makePrngBank(16);
    // Every register's cone must read only itself.
    for (rtl::RegId r = 0; r < nl.numRegisters(); ++r) {
        auto cone = rtl::backwardCone(nl, nl.reg(r).next);
        for (rtl::NodeId id : cone) {
            if (nl.node(id).op == rtl::Op::RegRead) {
                EXPECT_EQ(nl.node(id).aux, r);
            }
        }
    }
}

TEST(Bitcoin, FirstDoubleHashMatchesSoftware)
{
    // One engine, nonce starts at 0. The second compression finishes
    // at cycle 130 (two 65-cycle passes).
    Interpreter sim(makeBitcoin({1, 16}));
    sim.step(130);
    auto expect = minerSha256d(0);
    EXPECT_EQ(sim.peek("dig0").toUint64(), expect[0]);
    // found = top 16 bits of digest[0] zero.
    EXPECT_EQ(sim.peek("found").toUint64(),
              static_cast<uint64_t>((expect[0] >> 16) == 0));
    // The nonce advances for the next attempt.
    EXPECT_EQ(sim.peek("nonce0").toUint64(), 1u);
}

TEST(Bitcoin, SecondNonceAlsoMatches)
{
    Interpreter sim(makeBitcoin({1, 16}));
    sim.step(260);
    auto expect = minerSha256d(1);
    EXPECT_EQ(sim.peek("dig0").toUint64(), expect[0]);
    EXPECT_EQ(sim.peek("nonce0").toUint64(), 2u);
}

TEST(Bitcoin, EnginesSearchDisjointNonces)
{
    // Engine e starts at nonce e; after one attempt it moves to e+1.
    Interpreter sim(makeBitcoin({3, 16}));
    sim.step(130);
    EXPECT_EQ(sim.peekRegister("e0_nonce").toUint64(), 1u);
    EXPECT_EQ(sim.peekRegister("e1_nonce").toUint64(), 2u);
    EXPECT_EQ(sim.peekRegister("e2_nonce").toUint64(), 3u);
    EXPECT_EQ(sim.peekRegister("e1_dig0").toUint64(),
              minerSha256d(1)[0]);
}

TEST(Mc, CountsPathsAndAccumulates)
{
    McConfig cfg;
    cfg.lanes = 4;
    cfg.stepsPerPath = 16;
    Interpreter sim(makeMc(cfg));
    sim.step(16 * 3); // three complete paths
    EXPECT_EQ(sim.peek("paths").toUint64(), 3u);
    // The payoff sum must equal the sum of lane accumulators.
    uint64_t sum = 0;
    for (uint32_t lane = 0; lane < cfg.lanes; ++lane)
        sum += sim.peekRegister(strCat("l", lane, "_acc"))
                   .toUint64();
    EXPECT_EQ(sim.peek("payoff_sum").toUint64(), sum & 0xffffffffu);
}

TEST(Mc, PriceResetsEachPath)
{
    McConfig cfg;
    cfg.lanes = 2;
    cfg.stepsPerPath = 8;
    Interpreter sim(makeMc(cfg));
    sim.step(8); // exactly one path: price reloaded to spot
    EXPECT_EQ(sim.peekRegister("l0_price").toUint64(), cfg.spot);
    sim.step(3);
    EXPECT_NE(sim.peekRegister("l0_price").toUint64(), cfg.spot);
}

TEST(Vta, MacGridMatchesSoftware)
{
    VtaConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.bufDepth = 8;
    Interpreter sim(makeVta(cfg));
    const Netlist &nl = sim.netlist();

    // Mirror the generator's pseudo-random images.
    Rng rng(0x7a7a5eed);
    std::vector<std::vector<uint32_t>> act(cfg.rows);
    for (uint32_t r = 0; r < cfg.rows; ++r)
        for (uint32_t i = 0; i < cfg.bufDepth; ++i)
            act[r].push_back(
                static_cast<uint32_t>(rng.below(1 << 16)));
    std::vector<std::vector<uint32_t>> w(cfg.rows);
    for (uint32_t r = 0; r < cfg.rows; ++r)
        for (uint32_t c = 0; c < cfg.cols; ++c)
            w[r].push_back(static_cast<uint32_t>(rng.below(1 << 16)));

    // Software model: act register delays the SRAM read by 1 cycle;
    // accumulators clear when the address wraps.
    uint32_t n_cyc = 2 * cfg.bufDepth + 3;
    std::vector<std::vector<uint64_t>> acc(
        cfg.rows, std::vector<uint64_t>(cfg.cols, 0));
    std::vector<uint32_t> areg(cfg.rows, 0);
    uint32_t addr = 0;
    for (uint32_t t = 0; t < n_cyc; ++t) {
        bool wrap = addr == cfg.bufDepth - 1;
        for (uint32_t r = 0; r < cfg.rows; ++r)
            for (uint32_t c = 0; c < cfg.cols; ++c)
                acc[r][c] = wrap
                    ? 0
                    : (acc[r][c] + uint64_t{areg[r]} * w[r][c]) &
                        0xffffffffu;
        for (uint32_t r = 0; r < cfg.rows; ++r)
            areg[r] = act[r][addr];
        addr = (addr + 1) % cfg.bufDepth;
    }
    sim.step(n_cyc);
    for (uint32_t r = 0; r < cfg.rows; ++r)
        for (uint32_t c = 0; c < cfg.cols; ++c) {
            std::string name = strCat("pe", r, "_", c, "_acc");
            EXPECT_EQ(sim.peekRegister(name).toUint64(), acc[r][c])
                << name;
        }
    (void)nl;
}

TEST(Vta, DrainWritesResultBuffer)
{
    VtaConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.bufDepth = 8;
    Interpreter sim(makeVta(cfg));
    sim.step(cfg.bufDepth + 1);
    // After one wrap, rbuf[0] holds the drained column sum.
    EXPECT_NE(sim.peekMemory("rbuf", 0).toUint64(), 0u);
}

class MeshParam
    : public ::testing::TestWithParam<std::pair<uint32_t, MeshCore>>
{
};

TEST_P(MeshParam, FlitConservation)
{
    auto [n, kind] = GetParam();
    MeshConfig cfg;
    cfg.n = n;
    cfg.core = kind;
    cfg.injectPeriod = 4;
    Netlist nl = makeMesh(cfg);
    Interpreter sim(std::move(nl));
    const Netlist &net = sim.netlist();

    for (int epoch = 0; epoch < 4; ++epoch) {
        sim.step(50);
        uint64_t tx = sim.peek("tx_total").toUint64();
        uint64_t rx = sim.peek("rx_total").toUint64();
        // Count in-flight flits in both FIFO entries of every port.
        uint64_t inflight = 0;
        static const char *ports[5] = {"bn", "be", "bs", "bw", "bl"};
        for (uint32_t y = 0; y < n; ++y)
            for (uint32_t x = 0; x < n; ++x)
                for (const char *p : ports)
                    for (const char *e : {"0", "1"}) {
                        std::string name =
                            strCat("n", x, "_", y, "_", p, e);
                        inflight +=
                            sim.peekRegister(name).bit(0) ? 1 : 0;
                    }
        EXPECT_EQ(tx, rx + inflight) << "epoch " << epoch;
        EXPECT_GT(tx, 0u) << "no traffic injected";
    }
    (void)net;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MeshParam,
    ::testing::Values(std::make_pair(2u, MeshCore::Small),
                      std::make_pair(3u, MeshCore::Small),
                      std::make_pair(4u, MeshCore::Small),
                      std::make_pair(2u, MeshCore::Large),
                      std::make_pair(3u, MeshCore::Large)));

TEST(Mesh, DeliversToAllNodes)
{
    MeshConfig cfg;
    cfg.n = 3;
    cfg.injectPeriod = 4;
    Interpreter sim(makeMesh(cfg));
    sim.step(600);
    // Round-robin destinations: every node must have received flits.
    for (uint32_t y = 0; y < 3; ++y)
        for (uint32_t x = 0; x < 3; ++x) {
            std::string name = strCat("n", x, "_", y, "_rx");
            EXPECT_GT(sim.peekRegister(name).toUint64(), 0u) << name;
        }
}

TEST(Mesh, UncoreNodesBounceReplies)
{
    MeshConfig cfg;
    cfg.n = 3;
    cfg.injectPeriod = 4;
    Interpreter sim(makeMesh(cfg));
    sim.step(400);
    // The responders must have injected replies.
    for (auto [x, y] : {std::pair{0u, 0u}, {1u, 0u}, {0u, 1u}}) {
        std::string name = strCat("n", x, "_", y, "_tx");
        EXPECT_GT(sim.peekRegister(name).toUint64(), 0u) << name;
    }
}

TEST(Mesh, RejectsBadSizes)
{
    MeshConfig cfg;
    cfg.n = 1;
    EXPECT_THROW(makeMesh(cfg), FatalError);
    cfg.n = 16;
    EXPECT_THROW(makeMesh(cfg), FatalError);
}

TEST(Designs, SizesGrowWithMesh)
{
    auto nodes = [](Netlist nl) {
        return rtl::computeMetrics(nl).nodes;
    };
    size_t sr2 = nodes(makeSr(2));
    size_t sr3 = nodes(makeSr(3));
    size_t lr2 = nodes(makeLr(2));
    EXPECT_GT(sr3, 2 * sr2 - sr2 / 2); // roughly quadratic growth
    EXPECT_GT(lr2, sr2);               // large cores are larger
}
