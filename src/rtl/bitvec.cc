#include "rtl/bitvec.hh"

#include <algorithm>

#include "util/logging.hh"

namespace parendi::rtl {

void
BitVec::reshape(uint32_t width)
{
    if (width > kMaxWidth)
        fatal("BitVec width %u exceeds maximum %u", width, kMaxWidth);
    const uint32_t n = wordsFor(width);
    if (n > (cap_ ? cap_ : 1)) {
        uint64_t *buf = new uint64_t[n];
        if (cap_)
            delete[] heap_;
        heap_ = buf;
        cap_ = n;
    }
    width_ = width;
}

BitVec::BitVec(uint32_t width, uint64_t value)
    : width_(0), cap_(0), inline_(0)
{
    reshape(width);
    uint64_t *d = data();
    std::fill(d, d + numWords(), uint64_t{0});
    if (width)
        d[0] = value;
    normalize();
}

BitVec::BitVec(uint32_t width, const std::vector<uint64_t> &words)
    : width_(0), cap_(0), inline_(0)
{
    reshape(width);
    uint64_t *d = data();
    const uint32_t n = numWords();
    for (uint32_t i = 0; i < n; ++i)
        d[i] = i < words.size() ? words[i] : 0;
    normalize();
}

BitVec::BitVec(const BitVec &o) : width_(0), cap_(0), inline_(0)
{
    reshape(o.width_);
    std::copy_n(o.data(), numWords(), data());
}

BitVec::BitVec(BitVec &&o) noexcept
    : width_(o.width_), cap_(o.cap_), inline_(0)
{
    if (cap_)
        heap_ = o.heap_;
    else
        inline_ = o.inline_;
    o.width_ = 0;
    o.cap_ = 0;
    o.inline_ = 0;
}

BitVec &
BitVec::operator=(const BitVec &o)
{
    if (this != &o)
        assign(o.width_, o.data(), o.numWords());
    return *this;
}

BitVec &
BitVec::operator=(BitVec &&o) noexcept
{
    if (this == &o)
        return *this;
    if (cap_)
        delete[] heap_;
    width_ = o.width_;
    cap_ = o.cap_;
    if (cap_)
        heap_ = o.heap_;
    else
        inline_ = o.inline_;
    o.width_ = 0;
    o.cap_ = 0;
    o.inline_ = 0;
    return *this;
}

BitVec::~BitVec()
{
    if (cap_)
        delete[] heap_;
}

void
BitVec::assign(uint32_t width, const uint64_t *words, uint32_t n)
{
    reshape(width);
    uint64_t *d = data();
    const uint32_t total = numWords();
    const uint32_t copied = std::min(n, total);
    std::copy_n(words, copied, d);
    std::fill(d + copied, d + total, uint64_t{0});
    normalize();
}

void
BitVec::setBit(uint32_t i, bool v)
{
    uint64_t mask = uint64_t{1} << (i & 63);
    if (v)
        data()[i >> 6] |= mask;
    else
        data()[i >> 6] &= ~mask;
}

bool
BitVec::isZero() const
{
    const uint64_t *d = data();
    return std::all_of(d, d + numWords(),
                       [](uint64_t w) { return w == 0; });
}

bool
BitVec::operator==(const BitVec &o) const
{
    return width_ == o.width_ &&
        std::equal(data(), data() + numWords(), o.data());
}

void
BitVec::normalize()
{
    if (width_ == 0)
        return;
    uint32_t top_bits = width_ & 63;
    if (top_bits)
        data()[numWords() - 1] &= (uint64_t{1} << top_bits) - 1;
}

std::string
BitVec::toHex() const
{
    if (width_ == 0)
        return "0";
    std::string out;
    uint32_t nibbles = (width_ + 3) / 4;
    for (uint32_t i = 0; i < nibbles; ++i) {
        uint32_t nib = nibbles - 1 - i;
        uint32_t bit = nib * 4;
        uint64_t w = word(bit >> 6);
        out.push_back("0123456789abcdef"[(w >> (bit & 63)) & 0xf]);
    }
    // Strip leading zeros but keep at least one digit.
    size_t first = out.find_first_not_of('0');
    return first == std::string::npos ? "0" : out.substr(first);
}

BitVec
BitVec::fromHex(uint32_t width, const std::string &hex)
{
    BitVec v(width, uint64_t{0});
    uint64_t *d = v.data();
    const uint32_t n = v.numWords();
    uint32_t bit = 0;
    for (auto it = hex.rbegin(); it != hex.rend() && bit < width; ++it) {
        char c = *it;
        uint64_t nib;
        if (c >= '0' && c <= '9')
            nib = static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            nib = static_cast<uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            nib = static_cast<uint64_t>(c - 'A' + 10);
        else
            fatal("bad hex digit '%c' in \"%s\"", c, hex.c_str());
        d[bit >> 6] |= nib << (bit & 63);
        if ((bit & 63) > 60 && (bit >> 6) + 1 < n)
            d[(bit >> 6) + 1] |= nib >> (64 - (bit & 63));
        bit += 4;
    }
    v.normalize();
    return v;
}

} // namespace parendi::rtl
