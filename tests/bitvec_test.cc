/**
 * @file
 * Unit tests for the BitVec value type.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <utility>

#include "rtl/bitvec.hh"
#include "util/logging.hh"

using namespace parendi;
using namespace parendi::rtl;

// BitVec keeps wide values in a new[]-allocated buffer; counting the
// array allocations shows which values take a heap block.
namespace {
size_t gArrayNews = 0;
} // namespace

void *
operator new[](std::size_t n)
{
    ++gArrayNews;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

TEST(BitVec, ConstructionNormalizes)
{
    BitVec v(5, 0xff);
    EXPECT_EQ(v.toUint64(), 0x1fu);
    EXPECT_EQ(v.width(), 5u);
    EXPECT_EQ(v.numWords(), 1u);
}

TEST(BitVec, WideConstruction)
{
    BitVec v(130, {~0ull, ~0ull, ~0ull});
    EXPECT_EQ(v.numWords(), 3u);
    EXPECT_EQ(v.word(0), ~0ull);
    EXPECT_EQ(v.word(1), ~0ull);
    EXPECT_EQ(v.word(2), 3ull); // normalized to 2 bits
}

TEST(BitVec, BitAccess)
{
    BitVec v(70, 0);
    v.setBit(0, true);
    v.setBit(69, true);
    EXPECT_TRUE(v.bit(0));
    EXPECT_TRUE(v.bit(69));
    EXPECT_FALSE(v.bit(35));
    v.setBit(69, false);
    EXPECT_FALSE(v.bit(69));
}

TEST(BitVec, IsZeroAndEquality)
{
    EXPECT_TRUE(BitVec(64, 0).isZero());
    EXPECT_FALSE(BitVec(64, 1).isZero());
    EXPECT_EQ(BitVec(32, 5), BitVec(32, 5));
    EXPECT_NE(BitVec(32, 5), BitVec(33, 5));
    EXPECT_NE(BitVec(32, 5), BitVec(32, 6));
}

TEST(BitVec, HexRoundTrip)
{
    BitVec v(100, {0x0123456789abcdefull, 0xfedcba98ull});
    BitVec w = BitVec::fromHex(100, v.toHex());
    EXPECT_EQ(v, w);
}

TEST(BitVec, HexLeadingZeros)
{
    EXPECT_EQ(BitVec(32, 0).toHex(), "0");
    EXPECT_EQ(BitVec(32, 0xab).toHex(), "ab");
    EXPECT_EQ(BitVec::fromHex(32, "00ab"), BitVec(32, 0xab));
}

TEST(BitVec, FromHexUppercase)
{
    EXPECT_EQ(BitVec::fromHex(16, "AbCd"), BitVec(16, 0xabcd));
}

TEST(BitVec, FromHexBadDigit)
{
    EXPECT_THROW(BitVec::fromHex(16, "12g4"), FatalError);
}

TEST(BitVec, FromHexTruncatesToWidth)
{
    EXPECT_EQ(BitVec::fromHex(8, "1ff"), BitVec(8, 0xff));
}

TEST(BitVec, WidthLimit)
{
    EXPECT_THROW(BitVec(kMaxWidth + 1, 0), FatalError);
    EXPECT_NO_THROW(BitVec(kMaxWidth, 0));
}

TEST(BitVec, HexCrossesWordBoundary)
{
    // A nibble straddling bit 62..65.
    BitVec v = BitVec::fromHex(68, "fedcba98765432100");
    EXPECT_EQ(v.word(0), 0xedcba98765432100ull);
    EXPECT_EQ(v.word(1), 0xfull);
}

TEST(BitVec, NarrowValuesLiveInline)
{
    EXPECT_EQ(sizeof(BitVec), 16u);
    const size_t before = gArrayNews;
    BitVec a(64, ~0ull);
    BitVec b(a);
    BitVec c(1, 1);
    b = c;
    c = std::move(a);
    BitVec d(std::move(b));
    EXPECT_EQ(gArrayNews, before) << "a <=64-bit value took a heap block";
    EXPECT_EQ(c.word(0), ~0ull);
    EXPECT_EQ(d, BitVec(1, 1));
    BitVec wide(65, 1);
    EXPECT_EQ(gArrayNews, before + 1);
}

TEST(BitVec, WordBoundaries)
{
    BitVec w64(64, ~0ull);
    EXPECT_EQ(w64.numWords(), 1u);
    EXPECT_EQ(w64.toUint64(), ~0ull);
    EXPECT_EQ(w64.toHex(), "ffffffffffffffff");

    BitVec w65(65, {~0ull, ~0ull});
    EXPECT_EQ(w65.numWords(), 2u);
    EXPECT_EQ(w65.word(0), ~0ull);
    EXPECT_EQ(w65.word(1), 1u);
    EXPECT_TRUE(w65.bit(64));
    EXPECT_EQ(w65.toHex(), "1ffffffffffffffff");
    EXPECT_NE(w65, BitVec(65, ~0ull));

    BitVec w4096(kMaxWidth, 0);
    EXPECT_EQ(w4096.numWords(), 64u);
    EXPECT_TRUE(w4096.isZero());
    w4096.setBit(kMaxWidth - 1, true);
    EXPECT_FALSE(w4096.isZero());
    EXPECT_EQ(w4096.word(63), 1ull << 63);
    EXPECT_EQ(BitVec::fromHex(kMaxWidth, w4096.toHex()), w4096);

    BitVec empty;
    EXPECT_EQ(empty.width(), 0u);
    EXPECT_EQ(empty.numWords(), 0u);
    EXPECT_EQ(empty.toUint64(), 0u);
    EXPECT_TRUE(empty.isZero());
}

TEST(BitVec, CopyMoveAndSelfAssignment)
{
    for (uint32_t width : {1u, 64u, 65u, kMaxWidth}) {
        BitVec v = BitVec::fromHex(width, "f0e1d2c3b4a5968778695a4b3c2d1e0f");
        BitVec copy(v);
        EXPECT_EQ(copy, v) << width;
        BitVec assigned(200, 7);
        assigned = v;
        EXPECT_EQ(assigned, v) << width;

        BitVec &alias = assigned;
        assigned = alias;
        EXPECT_EQ(assigned, v) << width;
        assigned = std::move(alias);
        EXPECT_EQ(assigned, v) << width;

        BitVec moved(std::move(copy));
        EXPECT_EQ(moved, v) << width;
        EXPECT_EQ(copy.width(), 0u) << width;
        BitVec target(3, 1);
        target = std::move(moved);
        EXPECT_EQ(target, v) << width;
        EXPECT_EQ(moved.width(), 0u) << width;
        // A moved-from value is reusable.
        moved = v;
        EXPECT_EQ(moved, v) << width;
    }
}

TEST(BitVec, AssignShrinksAndGrows)
{
    BitVec v = BitVec::fromHex(kMaxWidth, std::string(1024, 'f'));
    ASSERT_EQ(v.word(63), ~0ull);

    // Heap to a value that fits inline: the value is exact and the
    // heap buffer is reused, not reallocated.
    const uint64_t eight = 0x1a5;
    size_t before = gArrayNews;
    v.assign(8, &eight, 1);
    EXPECT_EQ(gArrayNews, before);
    EXPECT_EQ(v, BitVec(8, 0xa5));
    EXPECT_EQ(v.numWords(), 1u);
    EXPECT_EQ(BitVec(v), BitVec(8, 0xa5));

    // Missing words read as zero, within the kept capacity.
    const uint64_t lo = 3;
    v.assign(200, &lo, 1);
    EXPECT_EQ(gArrayNews, before);
    EXPECT_EQ(v, BitVec(200, 3));

    // Growing an inline value allocates once.
    BitVec small(16, 0xffff);
    const uint64_t words[3] = {1, 2, 3};
    before = gArrayNews;
    small.assign(130, words, 3);
    EXPECT_EQ(gArrayNews, before + 1);
    EXPECT_EQ(small.word(0), 1u);
    EXPECT_EQ(small.word(1), 2u);
    EXPECT_EQ(small.word(2), 3u);
}
