/**
 * @file
 * BitVec: an arbitrary-width bit vector value used for constants, register
 * initial values, and port I/O at the public API boundary. The simulation
 * inner loops do not use BitVec; they operate on flat uint64 word arrays
 * (see rtl/eval.hh) for speed.
 */

#ifndef PARENDI_RTL_BITVEC_HH
#define PARENDI_RTL_BITVEC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace parendi::rtl {

/** Number of 64-bit words needed to hold @p width bits. */
constexpr uint32_t
wordsFor(uint32_t width)
{
    return (width + 63) / 64;
}

/** Maximum supported signal width in bits. */
constexpr uint32_t kMaxWidth = 4096;

/**
 * A value of a fixed bit width. All operations keep the value normalized:
 * bits above `width` are always zero.
 *
 * A value of 64 bits or fewer lives inline (no heap block; most ports
 * and registers are that narrow). A wider one lives in a heap buffer,
 * which assign() reuses while its capacity suffices, also for a
 * narrower value.
 */
class BitVec
{
  public:
    BitVec() : width_(0), cap_(0), inline_(0) {}

    /** A @p width bit value initialized from a uint64 (truncated). */
    explicit BitVec(uint32_t width, uint64_t value = 0);

    /** A @p width bit value from little-endian 64-bit words (missing
     *  words read as zero, extra ones are dropped). */
    BitVec(uint32_t width, const std::vector<uint64_t> &words);

    BitVec(const BitVec &o);
    BitVec(BitVec &&o) noexcept;
    BitVec &operator=(const BitVec &o);
    BitVec &operator=(BitVec &&o) noexcept;
    ~BitVec();

    /** Re-initialize in place from @p n little-endian words, reusing
     *  the existing buffer (no allocation once capacity suffices);
     *  the value is normalized to @p width. */
    void assign(uint32_t width, const uint64_t *words, uint32_t n);

    uint32_t width() const { return width_; }
    uint32_t numWords() const { return wordsFor(width_); }

    /** Low 64 bits of the value. */
    uint64_t toUint64() const { return width_ ? data()[0] : 0; }

    uint64_t word(uint32_t i) const { return data()[i]; }

    bool bit(uint32_t i) const { return (data()[i >> 6] >> (i & 63)) & 1; }
    void setBit(uint32_t i, bool v);

    bool isZero() const;

    bool operator==(const BitVec &o) const;
    bool operator!=(const BitVec &o) const { return !(*this == o); }

    /** Hex string, e.g. "8'hff" style without the width prefix. */
    std::string toHex() const;

    /** Parse a hex string (no prefix) into a value of @p width bits. */
    static BitVec fromHex(uint32_t width, const std::string &hex);

    /** Mask the top word so bits above width are zero. */
    void normalize();

  private:
    const uint64_t *data() const { return cap_ ? heap_ : &inline_; }
    uint64_t *data() { return cap_ ? heap_ : &inline_; }
    /** Set the width and make room for its words (contents
     *  unspecified), reusing the heap buffer when it is large enough. */
    void reshape(uint32_t width);

    uint32_t width_;
    uint32_t cap_;          ///< heap buffer words; 0 = value is inline
    union
    {
        uint64_t inline_;
        uint64_t *heap_;
    };
};

} // namespace parendi::rtl

#endif // PARENDI_RTL_BITVEC_HH
