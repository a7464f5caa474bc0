/**
 * @file
 * Property tests for the evaluation kernel: every operator is checked
 * against native uint64 arithmetic for widths up to 64, and against
 * algebraic identities plus known vectors for multiword widths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "rtl/dsl.hh"
#include "rtl/interp.hh"
#include "util/rng.hh"

using namespace parendi;
using namespace parendi::rtl;

namespace {

uint64_t
maskFor(uint32_t width)
{
    return width >= 64 ? ~0ull : (1ull << width) - 1;
}

/** A 2-input test harness around one operator-producing lambda. */
template <typename BuildFn>
class BinHarness
{
  public:
    BinHarness(uint32_t width, BuildFn build) : width_(width)
    {
        Design d("t");
        Wire a = d.input("a", static_cast<uint16_t>(width));
        Wire b = d.input("b", static_cast<uint16_t>(width));
        d.output("y", build(d, a, b));
        nl_ = std::make_unique<Netlist>(d.finish());
        interp_ = std::make_unique<Interpreter>(*nl_);
    }

    BitVec
    eval(const BitVec &a, const BitVec &b)
    {
        interp_->poke("a", a);
        interp_->poke("b", b);
        return interp_->peek("y");
    }

    uint64_t
    eval64(uint64_t a, uint64_t b)
    {
        uint64_t m = maskFor(width_);
        return eval(BitVec(width_, a & m), BitVec(width_, b & m))
            .toUint64();
    }

  private:
    uint32_t width_;
    std::unique_ptr<Netlist> nl_;
    std::unique_ptr<Interpreter> interp_;
};

BitVec
randomBits(Rng &rng, uint32_t width)
{
    std::vector<uint64_t> words(wordsFor(width));
    for (auto &w : words)
        w = rng.next();
    return BitVec(width, std::move(words));
}

} // namespace

class EvalOpParam : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(EvalOpParam, ArithMatchesNative)
{
    uint32_t w = GetParam();
    ASSERT_LE(w, 64u);
    uint64_t m = maskFor(w);
    Rng rng(w * 7919 + 3);

    BinHarness add(w, [](Design &, Wire a, Wire b) { return a + b; });
    BinHarness sub(w, [](Design &, Wire a, Wire b) { return a - b; });
    BinHarness mul(w, [](Design &, Wire a, Wire b) { return a * b; });
    BinHarness band(w, [](Design &, Wire a, Wire b) { return a & b; });
    BinHarness bor(w, [](Design &, Wire a, Wire b) { return a | b; });
    BinHarness bxor(w, [](Design &, Wire a, Wire b) { return a ^ b; });

    for (int i = 0; i < 50; ++i) {
        uint64_t a = rng.next() & m, b = rng.next() & m;
        EXPECT_EQ(add.eval64(a, b), (a + b) & m);
        EXPECT_EQ(sub.eval64(a, b), (a - b) & m);
        EXPECT_EQ(mul.eval64(a, b), (a * b) & m);
        EXPECT_EQ(band.eval64(a, b), a & b);
        EXPECT_EQ(bor.eval64(a, b), a | b);
        EXPECT_EQ(bxor.eval64(a, b), a ^ b);
    }
}

TEST_P(EvalOpParam, CompareMatchesNative)
{
    uint32_t w = GetParam();
    uint64_t m = maskFor(w);
    Rng rng(w * 104729 + 11);

    BinHarness eq(w, [](Design &, Wire a, Wire b) { return a == b; });
    BinHarness ne(w, [](Design &, Wire a, Wire b) { return a != b; });
    BinHarness ult(w, [](Design &, Wire a, Wire b) { return a.ult(b); });
    BinHarness ule(w, [](Design &, Wire a, Wire b) { return a.ule(b); });
    BinHarness slt(w, [](Design &, Wire a, Wire b) { return a.slt(b); });
    BinHarness sle(w, [](Design &, Wire a, Wire b) { return a.sle(b); });

    auto sext = [&](uint64_t v) -> int64_t {
        if (w == 64)
            return static_cast<int64_t>(v);
        uint64_t sign = 1ull << (w - 1);
        return static_cast<int64_t>((v ^ sign)) -
            static_cast<int64_t>(sign);
    };

    for (int i = 0; i < 50; ++i) {
        uint64_t a = rng.next() & m, b = rng.next() & m;
        if (i == 0)
            b = a; // force the equal case
        EXPECT_EQ(eq.eval64(a, b), static_cast<uint64_t>(a == b));
        EXPECT_EQ(ne.eval64(a, b), static_cast<uint64_t>(a != b));
        EXPECT_EQ(ult.eval64(a, b), static_cast<uint64_t>(a < b));
        EXPECT_EQ(ule.eval64(a, b), static_cast<uint64_t>(a <= b));
        EXPECT_EQ(slt.eval64(a, b),
                  static_cast<uint64_t>(sext(a) < sext(b)));
        EXPECT_EQ(sle.eval64(a, b),
                  static_cast<uint64_t>(sext(a) <= sext(b)));
    }
}

TEST_P(EvalOpParam, ShiftsMatchNative)
{
    uint32_t w = GetParam();
    uint64_t m = maskFor(w);
    Rng rng(w * 31337 + 5);

    BinHarness shl(w, [](Design &, Wire a, Wire b) { return a << b; });
    BinHarness shr(w, [](Design &, Wire a, Wire b) { return a >> b; });
    BinHarness sra(w, [](Design &, Wire a, Wire b) { return a.sra(b); });

    for (int i = 0; i < 60; ++i) {
        uint64_t a = rng.next() & m;
        uint64_t sh = rng.below(w + 8); // include out-of-range shifts
        uint64_t expect_shl = sh >= w ? 0 : (a << sh) & m;
        uint64_t expect_shr = sh >= w ? 0 : a >> sh;
        bool neg = (a >> (w - 1)) & 1;
        uint64_t expect_sra;
        if (sh >= w) {
            expect_sra = neg ? m : 0;
        } else {
            expect_sra = a >> sh;
            if (neg && sh > 0)
                expect_sra |= (m & ~(m >> sh));
        }
        // eval64 masks its operands, so only exercise shift amounts
        // representable in w bits.
        if (sh <= m) {
            EXPECT_EQ(shl.eval64(a, sh), expect_shl);
            EXPECT_EQ(shr.eval64(a, sh), expect_shr);
            EXPECT_EQ(sra.eval64(a, sh), expect_sra);
        }
    }
}

TEST_P(EvalOpParam, UnaryMatchesNative)
{
    uint32_t w = GetParam();
    uint64_t m = maskFor(w);
    Rng rng(w * 7 + 123);

    BinHarness bnot(w, [](Design &, Wire a, Wire) { return ~a; });
    BinHarness bneg(w, [](Design &, Wire a, Wire) { return a.neg(); });
    BinHarness rand_(w,
                     [](Design &, Wire a, Wire) { return a.redAnd(); });
    BinHarness ror_(w, [](Design &, Wire a, Wire) { return a.redOr(); });
    BinHarness rxor_(w,
                     [](Design &, Wire a, Wire) { return a.redXor(); });

    for (int i = 0; i < 40; ++i) {
        uint64_t a = rng.next() & m;
        if (i == 0)
            a = m; // all ones
        if (i == 1)
            a = 0;
        EXPECT_EQ(bnot.eval64(a, 0), ~a & m);
        EXPECT_EQ(bneg.eval64(a, 0), (~a + 1) & m);
        EXPECT_EQ(rand_.eval64(a, 0), static_cast<uint64_t>(a == m));
        EXPECT_EQ(ror_.eval64(a, 0), static_cast<uint64_t>(a != 0));
        EXPECT_EQ(rxor_.eval64(a, 0),
                  static_cast<uint64_t>(__builtin_popcountll(a) & 1));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, EvalOpParam,
                         ::testing::Values(1u, 3u, 8u, 13u, 16u, 31u,
                                           32u, 33u, 48u, 63u, 64u));

class EvalWideParam : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(EvalWideParam, MultiwordIdentities)
{
    uint32_t w = GetParam();
    Rng rng(w * 65537 + 17);

    BinHarness add(w, [](Design &, Wire a, Wire b) { return a + b; });
    BinHarness sub(w, [](Design &, Wire a, Wire b) { return a - b; });
    BinHarness bxor(w, [](Design &, Wire a, Wire b) { return a ^ b; });
    BinHarness mul(w, [](Design &, Wire a, Wire b) { return a * b; });
    BinHarness shl(w, [](Design &, Wire a, Wire b) { return a << b; });
    BinHarness shr(w, [](Design &, Wire a, Wire b) { return a >> b; });

    for (int i = 0; i < 20; ++i) {
        BitVec a = randomBits(rng, w);
        BitVec b = randomBits(rng, w);
        // (a + b) - b == a
        EXPECT_EQ(sub.eval(add.eval(a, b), b), a);
        // (a ^ b) ^ b == a
        EXPECT_EQ(bxor.eval(bxor.eval(a, b), b), a);
        // a * 2 == a + a
        EXPECT_EQ(mul.eval(a, BitVec(w, 2)), add.eval(a, a));
        // a * 1 == a; a * 0 == 0
        EXPECT_EQ(mul.eval(a, BitVec(w, 1)), a);
        EXPECT_TRUE(mul.eval(a, BitVec(w, 0)).isZero());
        // (a << k) >> k keeps the low w-k bits
        uint32_t k = 1 + static_cast<uint32_t>(rng.below(w - 1));
        BitVec kv(w, k);
        BitVec low = shr.eval(shl.eval(a, kv), kv);
        for (uint32_t bit = 0; bit < w - k; ++bit)
            EXPECT_EQ(low.bit(bit), a.bit(bit));
        for (uint32_t bit = w - k; bit < w; ++bit)
            EXPECT_FALSE(low.bit(bit));
    }
}

TEST_P(EvalWideParam, ShiftCrossesWordBoundary)
{
    uint32_t w = GetParam();
    BinHarness shl(w, [](Design &, Wire a, Wire b) { return a << b; });
    BitVec one(w, 1);
    for (uint32_t k : {63u, 64u, 65u, w - 1}) {
        if (k >= w)
            continue;
        BitVec r = shl.eval(one, BitVec(w, k));
        for (uint32_t bit = 0; bit < w; ++bit)
            EXPECT_EQ(r.bit(bit), bit == k) << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(WideWidths, EvalWideParam,
                         ::testing::Values(65u, 96u, 128u, 200u, 256u));

TEST(EvalStructure, ConcatSliceExtend)
{
    Design d("t");
    Wire a = d.input("a", 24);
    Wire b = d.input("b", 40);
    d.output("cat", a.concat(b));
    d.output("lo", a.concat(b).slice(0, 40));
    d.output("hi", a.concat(b).slice(40, 24));
    d.output("zx", a.zext(100));
    d.output("sx", a.sext(100));
    d.output("mid", a.concat(b).slice(33, 14));
    Netlist nl = d.finish();
    Interpreter in(nl);

    in.poke("a", BitVec(24, 0xabcdef));
    in.poke("b", BitVec(40, 0x1234567890ull));
    EXPECT_EQ(in.peek("cat"),
              BitVec(64, (0xabcdefull << 40) | 0x1234567890ull));
    EXPECT_EQ(in.peek("lo"), BitVec(40, 0x1234567890ull));
    EXPECT_EQ(in.peek("hi"), BitVec(24, 0xabcdef));
    uint64_t cat = (0xabcdefull << 40) | 0x1234567890ull;
    EXPECT_EQ(in.peek("mid"), BitVec(14, (cat >> 33) & 0x3fff));
    EXPECT_EQ(in.peek("zx").toUint64(), 0xabcdefull);
    EXPECT_TRUE(in.peek("zx").word(1) == 0);
    // 0xabcdef has bit 23 set -> sign extension fills above.
    BitVec sx = in.peek("sx");
    EXPECT_EQ(sx.toUint64() & 0xffffff, 0xabcdefull);
    for (uint32_t bit = 24; bit < 100; ++bit)
        EXPECT_TRUE(sx.bit(bit));
}

namespace {

BitVec
allOnesBits(uint32_t width)
{
    std::vector<uint64_t> words(wordsFor(width), ~0ull);
    if (width % 64)
        words.back() &= ~0ull >> (64 - width % 64);
    return BitVec(width, std::move(words));
}

bool
programHasOp(const Interpreter &in, EvalOp op)
{
    for (const EvalInstr &i : in.program().instrs)
        if (i.op == op)
            return true;
    return false;
}

/**
 * Directed fused-vs-generic harness: build a 4-input design, compile
 * it once with full lowering and once fully generic, drive both with
 * identical stimulus (random plus corner values), and require
 * bit-identical outputs. When @p expect is not NumEvalOps, also
 * require that the fused program really contains that superinstruction
 * so the test provably exercises the fused kernel.
 */
template <typename BuildFn>
void
checkFusedDirected(uint32_t w, BuildFn build,
                   EvalOp expect = EvalOp::NumEvalOps)
{
    Design d("fuse" + std::to_string(w));
    Wire a = d.input("a", static_cast<uint16_t>(w));
    Wire b = d.input("b", static_cast<uint16_t>(w));
    Wire x = d.input("x", static_cast<uint16_t>(w));
    Wire y = d.input("y", static_cast<uint16_t>(w));
    d.output("out", build(d, a, b, x, y));
    Netlist nl = d.finish();
    Interpreter fused(nl);
    Interpreter generic(nl, LowerOptions::none());
    if (expect != EvalOp::NumEvalOps) {
        EXPECT_TRUE(programHasOp(fused, expect))
            << "w=" << w << ": program lacks "
            << evalOpName(expect);
    }

    Rng rng(w * 1699 + 29);
    const char *ports[] = {"a", "b", "x", "y"};
    for (int i = 0; i < 40; ++i) {
        for (const char *p : ports) {
            BitVec v = randomBits(rng, w);
            if (i == 0)
                v = BitVec(w, 0);                 // all zero
            if (i == 1)
                v = allOnesBits(w);
            fused.poke(p, v);
            generic.poke(p, v);
        }
        if (i == 2) { // equal operands hit the Eq/Ne boundary
            BitVec v = randomBits(rng, w);
            fused.poke("a", v);
            generic.poke("a", v);
            fused.poke("b", v);
            generic.poke("b", v);
        }
        ASSERT_EQ(fused.peek("out"), generic.peek("out"))
            << "w=" << w << " iter=" << i;
    }
}

} // namespace

TEST(EvalStructure, MuxSelectsAndPropagates)
{
    Design d("t");
    Wire s = d.input("s", 1);
    Wire a = d.input("a", 128);
    Wire b = d.input("b", 128);
    d.output("y", d.mux(s, a, b));
    Netlist nl = d.finish();
    Interpreter in(nl);
    Rng rng(99);
    BitVec av = randomBits(rng, 128), bv = randomBits(rng, 128);
    in.poke("a", av);
    in.poke("b", bv);
    in.poke("s", BitVec(1, 1));
    EXPECT_EQ(in.peek("y"), av);
    in.poke("s", BitVec(1, 0));
    EXPECT_EQ(in.peek("y"), bv);
}

/**
 * Directed coverage for every superinstruction the lowering pass can
 * emit, at the width boundaries that matter for the single-word fast
 * path: 1, 63, 64 (fusable) and 65, 128 (multi-word operands, where
 * either no fusion happens or only a truncating form applies).
 */
class FusionDirected : public ::testing::TestWithParam<uint32_t>
{
  protected:
    bool
    fits()
    {
        return GetParam() <= 64;
    }

    EvalOp
    expectIf(EvalOp op)
    {
        return fits() ? op : EvalOp::NumEvalOps;
    }
};

TEST_P(FusionDirected, CmpMux)
{
    uint32_t w = GetParam();
    checkFusedDirected(w, [](Design &d, Wire a, Wire b, Wire x, Wire y) {
        return d.mux(a == b, x, y);
    }, expectIf(EvalOp::EqMuxW));
    checkFusedDirected(w, [](Design &d, Wire a, Wire b, Wire x, Wire y) {
        return d.mux(a != b, x, y);
    }, expectIf(EvalOp::NeMuxW));
    checkFusedDirected(w, [](Design &d, Wire a, Wire b, Wire x, Wire y) {
        return d.mux(a.ult(b), x, y);
    }, expectIf(EvalOp::UltMuxW));
    checkFusedDirected(w, [](Design &d, Wire a, Wire b, Wire x, Wire y) {
        return d.mux(a.ule(b), x, y);
    }, expectIf(EvalOp::UleMuxW));
    checkFusedDirected(w, [](Design &d, Wire a, Wire b, Wire x, Wire y) {
        return d.mux(a.slt(b), x, y);
    }, expectIf(EvalOp::SltMuxW));
    checkFusedDirected(w, [](Design &d, Wire a, Wire b, Wire x, Wire y) {
        return d.mux(a.sle(b), x, y);
    }, expectIf(EvalOp::SleMuxW));
}

TEST_P(FusionDirected, OpWithInvertedOperand)
{
    uint32_t w = GetParam();
    checkFusedDirected(w, [](Design &, Wire a, Wire b, Wire, Wire) {
        return a & ~b;
    }, expectIf(EvalOp::AndNotW));
    checkFusedDirected(w, [](Design &, Wire a, Wire b, Wire, Wire) {
        return ~a & b; // commuted: inversion on the left operand
    }, expectIf(EvalOp::AndNotW));
    checkFusedDirected(w, [](Design &, Wire a, Wire b, Wire, Wire) {
        return a | ~b;
    }, expectIf(EvalOp::OrNotW));
    checkFusedDirected(w, [](Design &, Wire a, Wire b, Wire, Wire) {
        return a ^ ~b;
    }, expectIf(EvalOp::XorNotW));
}

TEST_P(FusionDirected, InvertedMuxSelect)
{
    // mux(~s, a, b) lowers to mux(s, b, a): no new opcode, but the Not
    // disappears, so the fused program must be strictly shorter.
    uint32_t w = GetParam();
    Design d("nm" + std::to_string(w));
    Wire s = d.input("s", 1);
    Wire a = d.input("a", static_cast<uint16_t>(w));
    Wire b = d.input("b", static_cast<uint16_t>(w));
    d.output("out", d.mux(~s, a, b));
    Netlist nl = d.finish();
    Interpreter fused(nl);
    Interpreter generic(nl, LowerOptions::none());
    EXPECT_LT(fused.program().instrs.size(),
              generic.program().instrs.size());
    Rng rng(w * 271 + 3);
    for (int i = 0; i < 20; ++i) {
        BitVec av = randomBits(rng, w), bv = randomBits(rng, w);
        BitVec sv(1, i & 1);
        for (Interpreter *in : {&fused, &generic}) {
            in->poke("a", av);
            in->poke("b", bv);
            in->poke("s", sv);
        }
        ASSERT_EQ(fused.peek("out"), generic.peek("out"))
            << "w=" << w << " s=" << (i & 1);
        ASSERT_EQ(fused.peek("out"), (i & 1) ? bv : av);
    }
}

TEST_P(FusionDirected, OpThenTruncate)
{
    // (a op b).slice(0, w2): truncation-stable producers are narrowed
    // into a single-word op at the slice width, even when the inputs
    // themselves are wider than 64 bits.
    uint32_t w = GetParam();
    uint32_t w2 = std::min(w, 64u) - (w > 1 ? 1 : 0);
    if (w2 == 0)
        w2 = 1;
    auto slice_of = [w2](Wire v) { return v.slice(0, static_cast<uint16_t>(w2)); };
    checkFusedDirected(w, [&](Design &, Wire a, Wire b, Wire, Wire) {
        return slice_of(a + b);
    }, EvalOp::AddW);
    checkFusedDirected(w, [&](Design &, Wire a, Wire b, Wire, Wire) {
        return slice_of(a - b);
    }, EvalOp::SubW);
    checkFusedDirected(w, [&](Design &, Wire a, Wire b, Wire, Wire) {
        return slice_of(a & b);
    }, EvalOp::AndW);
    checkFusedDirected(w, [&](Design &, Wire a, Wire, Wire, Wire) {
        return slice_of(~a);
    }, EvalOp::NotW);
    checkFusedDirected(w, [&](Design &, Wire a, Wire b, Wire, Wire) {
        return slice_of(a * b); // low bits of a product never depend
                                // on the discarded high bits
    }, EvalOp::MulW);
}

INSTANTIATE_TEST_SUITE_P(WidthBoundaries, FusionDirected,
                         ::testing::Values(1u, 63u, 64u, 65u, 128u));

TEST(EvalMemory, WritePortOrderOnCollision)
{
    // Two ports writing the same address in the same cycle: ports
    // commit in creation order (netlist.hh), so the last *enabled*
    // port wins. Checked fused and generic.
    Design d("wports");
    MemId m = d.memory("m", 32, 8);
    Wire addr = d.input("addr", 3);
    Wire d0 = d.input("d0", 32);
    Wire d1 = d.input("d1", 32);
    Wire e0 = d.input("e0", 1);
    Wire e1 = d.input("e1", 1);
    d.memWrite(m, addr, d0, e0);
    d.memWrite(m, addr, d1, e1);
    d.output("probe", d.memRead(m, addr));
    Netlist nl = d.finish();

    for (bool lowered : {true, false}) {
        Interpreter in(nl, lowered ? LowerOptions{}
                                   : LowerOptions::none());
        auto cycle = [&](uint64_t a, uint32_t v0, uint32_t v1,
                         bool en0, bool en1) {
            in.poke("addr", BitVec(3, a));
            in.poke("d0", BitVec(32, v0));
            in.poke("d1", BitVec(32, v1));
            in.poke("e0", BitVec(1, en0));
            in.poke("e1", BitVec(1, en1));
            in.step();
        };
        // Both enabled: port 1 (created last) must win.
        cycle(3, 0x11111111, 0x22222222, true, true);
        EXPECT_EQ(in.peekMemory("m", 3), BitVec(32, 0x22222222))
            << (lowered ? "fused" : "generic");
        // Only port 0 enabled: its data lands even though port 1
        // carries different data.
        cycle(4, 0x33333333, 0x44444444, true, false);
        EXPECT_EQ(in.peekMemory("m", 4), BitVec(32, 0x33333333));
        // Only port 1 enabled.
        cycle(5, 0x55555555, 0x66666666, false, true);
        EXPECT_EQ(in.peekMemory("m", 5), BitVec(32, 0x66666666));
        // Neither enabled: entry keeps its previous value.
        cycle(3, 0x77777777, 0x88888888, false, false);
        EXPECT_EQ(in.peekMemory("m", 3), BitVec(32, 0x22222222));
    }
}
