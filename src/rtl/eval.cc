#include "rtl/eval.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "rtl/analysis.hh"
#include "util/logging.hh"

namespace parendi::rtl {

namespace {

constexpr uint32_t
nw(uint32_t width)
{
    return (width + 63) / 64;
}

inline uint64_t
topMask(uint16_t width)
{
    uint32_t r = width & 63;
    return r ? (uint64_t{1} << r) - 1 : ~uint64_t{0};
}

inline void
normalize(uint64_t *d, uint16_t width)
{
    d[nw(width) - 1] &= topMask(width);
}

inline void
copyVal(uint64_t *d, const uint64_t *a, uint32_t words)
{
    std::memcpy(d, a, words * sizeof(uint64_t));
}

inline void
zeroVal(uint64_t *d, uint32_t words)
{
    std::memset(d, 0, words * sizeof(uint64_t));
}

void
addVal(uint64_t *d, const uint64_t *a, const uint64_t *b, uint16_t width)
{
    uint32_t n = nw(width);
    unsigned __int128 carry = 0;
    for (uint32_t i = 0; i < n; ++i) {
        unsigned __int128 s = carry + a[i] + b[i];
        d[i] = static_cast<uint64_t>(s);
        carry = s >> 64;
    }
    normalize(d, width);
}

void
subVal(uint64_t *d, const uint64_t *a, const uint64_t *b, uint16_t width)
{
    uint32_t n = nw(width);
    unsigned __int128 borrow = 0;
    for (uint32_t i = 0; i < n; ++i) {
        unsigned __int128 s = static_cast<unsigned __int128>(a[i]) - b[i]
            - borrow;
        d[i] = static_cast<uint64_t>(s);
        borrow = (s >> 64) ? 1 : 0;
    }
    normalize(d, width);
}

void
mulVal(uint64_t *d, const uint64_t *a, const uint64_t *b, uint16_t width)
{
    uint32_t n = nw(width);
    // Truncating schoolbook multiply on 64-bit limbs.
    uint64_t tmp[nw(kMaxWidth)] = {0};
    for (uint32_t i = 0; i < n; ++i) {
        if (a[i] == 0)
            continue;
        unsigned __int128 carry = 0;
        for (uint32_t j = 0; i + j < n; ++j) {
            unsigned __int128 cur = tmp[i + j] + carry +
                static_cast<unsigned __int128>(a[i]) * b[j];
            tmp[i + j] = static_cast<uint64_t>(cur);
            carry = cur >> 64;
        }
    }
    copyVal(d, tmp, n);
    normalize(d, width);
}

/** Shift amount as a saturating uint64 (any nonzero high word = huge). */
uint64_t
shiftAmount(const uint64_t *b, uint16_t wb)
{
    return saturatingWideReadBits(b, wb);
}

void
shlVal(uint64_t *d, const uint64_t *a, uint64_t amount, uint16_t width)
{
    uint32_t n = nw(width);
    if (amount >= width) {
        zeroVal(d, n);
        return;
    }
    uint32_t word_shift = static_cast<uint32_t>(amount >> 6);
    uint32_t bit_shift = static_cast<uint32_t>(amount & 63);
    for (uint32_t i = n; i-- > 0;) {
        uint64_t hi = i >= word_shift ? a[i - word_shift] : 0;
        uint64_t lo = (bit_shift && i > word_shift)
            ? a[i - word_shift - 1] : 0;
        d[i] = bit_shift ? (hi << bit_shift) | (lo >> (64 - bit_shift)) : hi;
    }
    normalize(d, width);
}

void
shrVal(uint64_t *d, const uint64_t *a, uint64_t amount, uint16_t width)
{
    uint32_t n = nw(width);
    if (amount >= width) {
        zeroVal(d, n);
        return;
    }
    uint32_t word_shift = static_cast<uint32_t>(amount >> 6);
    uint32_t bit_shift = static_cast<uint32_t>(amount & 63);
    for (uint32_t i = 0; i < n; ++i) {
        uint64_t lo = i + word_shift < n ? a[i + word_shift] : 0;
        uint64_t hi = (bit_shift && i + word_shift + 1 < n)
            ? a[i + word_shift + 1] : 0;
        d[i] = bit_shift ? (lo >> bit_shift) | (hi << (64 - bit_shift)) : lo;
    }
}

void
sraVal(uint64_t *d, const uint64_t *a, uint64_t amount, uint16_t width)
{
    bool sign = (a[(width - 1) >> 6] >> ((width - 1) & 63)) & 1;
    if (amount >= width) {
        uint32_t n = nw(width);
        for (uint32_t i = 0; i < n; ++i)
            d[i] = sign ? ~uint64_t{0} : 0;
        normalize(d, width);
        return;
    }
    shrVal(d, a, amount, width);
    if (sign && amount > 0) {
        // Fill the vacated top `amount` bits with ones.
        for (uint32_t bit = width - static_cast<uint32_t>(amount);
             bit < width; ++bit)
            d[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
}

/** Unsigned compare: -1, 0, +1. */
int
ucmp(const uint64_t *a, const uint64_t *b, uint16_t width)
{
    for (uint32_t i = nw(width); i-- > 0;) {
        if (a[i] < b[i])
            return -1;
        if (a[i] > b[i])
            return 1;
    }
    return 0;
}

/** Signed compare of width-bit two's-complement values. */
int
scmp(const uint64_t *a, const uint64_t *b, uint16_t width)
{
    uint32_t sbit = (width - 1);
    bool sa = (a[sbit >> 6] >> (sbit & 63)) & 1;
    bool sb = (b[sbit >> 6] >> (sbit & 63)) & 1;
    if (sa != sb)
        return sa ? -1 : 1;
    return ucmp(a, b, width);
}

bool
isZeroVal(const uint64_t *a, uint16_t width)
{
    for (uint32_t i = 0; i < nw(width); ++i)
        if (a[i])
            return false;
    return true;
}

// -- Single-word (W tier) kernels ---------------------------------------
//
// Invariant: every slot value is normalized (bits above its width are
// zero), maintained by all kernels, writeSlot(), and the init images.
// Kernels whose operands may be wider than the result (the truncating
// fused forms) mask the result explicitly.

/** Sign-extend the low @p w bits of @p v to 64 bits (1 <= w <= 64). */
inline int64_t
sextWord(uint64_t v, uint16_t w)
{
    unsigned sh = 64u - w;
    return static_cast<int64_t>(v << sh) >> sh;
}

inline void
kNotW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = ~s[in.a] & topMask(in.width);
}

inline void
kNegW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = (0 - s[in.a]) & topMask(in.width);
}

inline void
kRedAndW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = s[in.a] == topMask(in.wa);
}

inline void
kRedOrW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = s[in.a] != 0;
}

inline void
kRedXorW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = static_cast<uint64_t>(std::popcount(s[in.a])) & 1;
}

inline void
kAndW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = (s[in.a] & s[in.b]) & topMask(in.width);
}

inline void
kOrW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = (s[in.a] | s[in.b]) & topMask(in.width);
}

inline void
kXorW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = (s[in.a] ^ s[in.b]) & topMask(in.width);
}

inline void
kAddW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = (s[in.a] + s[in.b]) & topMask(in.width);
}

inline void
kSubW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = (s[in.a] - s[in.b]) & topMask(in.width);
}

inline void
kMulW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = (s[in.a] * s[in.b]) & topMask(in.width);
}

inline void
kShlW(const EvalInstr &in, uint64_t *s)
{
    uint64_t amt = s[in.b];
    s[in.dst] = amt >= in.width
        ? 0 : (s[in.a] << amt) & topMask(in.width);
}

inline void
kShrW(const EvalInstr &in, uint64_t *s)
{
    uint64_t amt = s[in.b];
    s[in.dst] = amt >= in.width ? 0 : s[in.a] >> amt;
}

inline void
kSraW(const EvalInstr &in, uint64_t *s)
{
    uint64_t amt = s[in.b];
    int64_t v = sextWord(s[in.a], in.width);
    if (amt >= in.width)
        amt = in.width - 1u;
    s[in.dst] = static_cast<uint64_t>(v >> amt) & topMask(in.width);
}

inline void
kEqW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = s[in.a] == s[in.b];
}

inline void
kNeW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = s[in.a] != s[in.b];
}

inline void
kUltW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = s[in.a] < s[in.b];
}

inline void
kUleW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = s[in.a] <= s[in.b];
}

inline void
kSltW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = sextWord(s[in.a], in.wa) < sextWord(s[in.b], in.wa);
}

inline void
kSleW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = sextWord(s[in.a], in.wa) <= sextWord(s[in.b], in.wa);
}

inline void
kMuxW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = (s[in.a] & 1) ? s[in.b] : s[in.c];
}

inline void
kConcatW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = (s[in.a] << in.wb) | s[in.b];
}

inline void
kSliceW(const EvalInstr &in, uint64_t *s)
{
    uint32_t ws = in.aux >> 6;
    uint32_t bs = in.aux & 63;
    uint32_t na = nw(in.wa);
    const uint64_t *a = s + in.a;
    uint64_t lo = a[ws];
    uint64_t hi = (bs && ws + 1 < na) ? a[ws + 1] : 0;
    uint64_t v = bs ? (lo >> bs) | (hi << (64 - bs)) : lo;
    s[in.dst] = v & topMask(in.width);
}

inline void
kZExtW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = s[in.a];
}

inline void
kSExtW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = static_cast<uint64_t>(sextWord(s[in.a], in.wa)) &
        topMask(in.width);
}

inline void
kAndNotW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = (s[in.a] & ~s[in.b]) & topMask(in.width);
}

inline void
kOrNotW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = (s[in.a] | ~s[in.b]) & topMask(in.width);
}

inline void
kXorNotW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = (s[in.a] ^ ~s[in.b]) & topMask(in.width);
}

inline void
kEqMuxW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = s[in.a] == s[in.b] ? s[in.c] : s[in.aux];
}

inline void
kNeMuxW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = s[in.a] != s[in.b] ? s[in.c] : s[in.aux];
}

inline void
kUltMuxW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = s[in.a] < s[in.b] ? s[in.c] : s[in.aux];
}

inline void
kUleMuxW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = s[in.a] <= s[in.b] ? s[in.c] : s[in.aux];
}

inline void
kSltMuxW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = sextWord(s[in.a], in.wa) < sextWord(s[in.b], in.wa)
        ? s[in.c] : s[in.aux];
}

inline void
kSleMuxW(const EvalInstr &in, uint64_t *s)
{
    s[in.dst] = sextWord(s[in.a], in.wa) <= sextWord(s[in.b], in.wa)
        ? s[in.c] : s[in.aux];
}

} // namespace

const char *
evalOpName(EvalOp op)
{
    if (isGenericEvalOp(op))
        return opName(static_cast<Op>(op));
    switch (op) {
      case EvalOp::NotW: return "not.w";
      case EvalOp::NegW: return "neg.w";
      case EvalOp::RedAndW: return "redand.w";
      case EvalOp::RedOrW: return "redor.w";
      case EvalOp::RedXorW: return "redxor.w";
      case EvalOp::AndW: return "and.w";
      case EvalOp::OrW: return "or.w";
      case EvalOp::XorW: return "xor.w";
      case EvalOp::AddW: return "add.w";
      case EvalOp::SubW: return "sub.w";
      case EvalOp::MulW: return "mul.w";
      case EvalOp::ShlW: return "shl.w";
      case EvalOp::ShrW: return "shr.w";
      case EvalOp::SraW: return "sra.w";
      case EvalOp::EqW: return "eq.w";
      case EvalOp::NeW: return "ne.w";
      case EvalOp::UltW: return "ult.w";
      case EvalOp::UleW: return "ule.w";
      case EvalOp::SltW: return "slt.w";
      case EvalOp::SleW: return "sle.w";
      case EvalOp::MuxW: return "mux.w";
      case EvalOp::ConcatW: return "concat.w";
      case EvalOp::SliceW: return "slice.w";
      case EvalOp::ZExtW: return "zext.w";
      case EvalOp::SExtW: return "sext.w";
      case EvalOp::MemReadW: return "memread.w";
      case EvalOp::AndNotW: return "andnot.w";
      case EvalOp::OrNotW: return "ornot.w";
      case EvalOp::XorNotW: return "xornot.w";
      case EvalOp::EqMuxW: return "eqmux.w";
      case EvalOp::NeMuxW: return "nemux.w";
      case EvalOp::UltMuxW: return "ultmux.w";
      case EvalOp::UleMuxW: return "ulemux.w";
      case EvalOp::SltMuxW: return "sltmux.w";
      case EvalOp::SleMuxW: return "slemux.w";
      default: return "?";
    }
}

int
evalInstrOperands(const EvalInstr &in, uint32_t ops[4])
{
    if (isGenericEvalOp(in.op)) {
        int arity = opArity(static_cast<Op>(in.op));
        if (arity >= 1)
            ops[0] = in.a;
        if (arity >= 2)
            ops[1] = in.b;
        if (arity >= 3)
            ops[2] = in.c;
        return arity;
    }
    switch (in.op) {
      case EvalOp::NotW:
      case EvalOp::NegW:
      case EvalOp::RedAndW:
      case EvalOp::RedOrW:
      case EvalOp::RedXorW:
      case EvalOp::SliceW:
      case EvalOp::ZExtW:
      case EvalOp::SExtW:
      case EvalOp::MemReadW:
        ops[0] = in.a;
        return 1;
      case EvalOp::MuxW:
        ops[0] = in.a;
        ops[1] = in.b;
        ops[2] = in.c;
        return 3;
      case EvalOp::EqMuxW:
      case EvalOp::NeMuxW:
      case EvalOp::UltMuxW:
      case EvalOp::UleMuxW:
      case EvalOp::SltMuxW:
      case EvalOp::SleMuxW:
        ops[0] = in.a;
        ops[1] = in.b;
        ops[2] = in.c;
        ops[3] = in.aux;
        return 4;
      default: // remaining W forms are binary
        ops[0] = in.a;
        ops[1] = in.b;
        return 2;
    }
}

bool
evalReadsMemory(EvalOp op)
{
    return op == EvalOp::MemRead || op == EvalOp::MemReadW;
}

uint64_t
EvalProgram::dataBytes() const
{
    uint64_t bytes = initSlots.size() * 8;
    for (const auto &img : memInit)
        bytes += img.size() * 8;
    return bytes;
}

ProgramBuilder::ProgramBuilder(const Netlist &nl) : nl_(nl) {}

uint32_t
ProgramBuilder::allocSlots(uint16_t width)
{
    uint32_t off = static_cast<uint32_t>(prog_.initSlots.size());
    prog_.initSlots.resize(off + nw(width), 0);
    return off;
}

uint32_t
ProgramBuilder::slotFor(NodeId id) const
{
    auto it = prog_.slotOf.find(id);
    if (it == prog_.slotOf.end())
        panic("node %u used before being added to program", id);
    return it->second;
}

void
ProgramBuilder::addNode(NodeId id)
{
    if (prog_.slotOf.count(id))
        return;
    const Node &n = nl_.node(id);
    switch (n.op) {
      case Op::Const: {
        uint32_t slot = allocSlots(n.width);
        const BitVec &v = nl_.constValue(n.aux);
        for (uint32_t i = 0; i < v.numWords(); ++i)
            prog_.initSlots[slot + i] = v.word(i);
        prog_.slotOf[id] = slot;
        return;
      }
      case Op::Input: {
        uint32_t slot = allocSlots(n.width);
        prog_.slotOf[id] = slot;
        prog_.inputs.push_back({n.aux, n.width, slot});
        return;
      }
      case Op::RegRead: {
        RegId reg = n.aux;
        auto it = regIndex_.find(reg);
        uint32_t idx;
        if (it == regIndex_.end()) {
            uint32_t slot = allocSlots(n.width);
            const BitVec &init = nl_.reg(reg).init;
            for (uint32_t i = 0; i < init.numWords(); ++i)
                prog_.initSlots[slot + i] = init.word(i);
            idx = static_cast<uint32_t>(prog_.regs.size());
            prog_.regs.push_back({reg, n.width, slot, kNoSlot, false});
            regIndex_[reg] = idx;
        } else {
            idx = it->second;
        }
        prog_.slotOf[id] = prog_.regs[idx].cur;
        return;
      }
      case Op::RegNext: {
        RegId reg = n.aux;
        uint32_t value_slot = slotFor(n.operands[0]);
        auto it = regIndex_.find(reg);
        if (it == regIndex_.end()) {
            // Register written but never read locally: no cur slot
            // needed for evaluation, but allocate one anyway so the
            // host can latch/peek uniformly.
            uint32_t slot = allocSlots(n.width);
            const BitVec &init = nl_.reg(reg).init;
            for (uint32_t i = 0; i < init.numWords(); ++i)
                prog_.initSlots[slot + i] = init.word(i);
            regIndex_[reg] = static_cast<uint32_t>(prog_.regs.size());
            prog_.regs.push_back({reg, n.width, slot, value_slot, true});
        } else {
            ProgReg &pr = prog_.regs[it->second];
            pr.next = value_slot;
            pr.owned = true;
        }
        prog_.slotOf[id] = value_slot;
        return;
      }
      case Op::Output: {
        prog_.slotOf[id] = slotFor(n.operands[0]);
        prog_.outputs.push_back({n.aux, n.width, slotFor(n.operands[0])});
        return;
      }
      case Op::MemWrite: {
        MemId mem = n.aux;
        auto it = memIndex_.find(mem);
        uint32_t idx;
        if (it == memIndex_.end()) {
            idx = static_cast<uint32_t>(prog_.mems.size());
            const Memory &m = nl_.mem(mem);
            prog_.mems.push_back({mem, nw(m.width), m.depth, true});
            memIndex_[mem] = idx;
        } else {
            idx = it->second;
            prog_.mems[idx].owned = true;
        }
        prog_.writes.push_back({idx, slotFor(n.operands[0]),
                                nl_.widthOf(n.operands[0]),
                                slotFor(n.operands[1]),
                                slotFor(n.operands[2])});
        prog_.slotOf[id] = slotFor(n.operands[1]);
        return;
      }
      default:
        break;
    }

    // Pure combinational operator: emit a generic-tier instruction.
    EvalInstr in;
    in.op = toEvalOp(n.op);
    in.width = n.width;
    in.aux = n.aux;
    in.wa = 0;
    in.wb = 0;
    in.a = in.b = in.c = 0;
    int arity = opArity(n.op);
    if (arity >= 1) {
        in.a = slotFor(n.operands[0]);
        in.wa = nl_.widthOf(n.operands[0]);
    }
    if (arity >= 2) {
        in.b = slotFor(n.operands[1]);
        in.wb = nl_.widthOf(n.operands[1]);
    }
    if (arity >= 3)
        in.c = slotFor(n.operands[2]);

    if (n.op == Op::MemRead) {
        MemId mem = n.aux;
        auto it = memIndex_.find(mem);
        uint32_t idx;
        if (it == memIndex_.end()) {
            idx = static_cast<uint32_t>(prog_.mems.size());
            const Memory &m = nl_.mem(mem);
            prog_.mems.push_back({mem, nw(m.width), m.depth, false});
            memIndex_[mem] = idx;
        } else {
            idx = it->second;
        }
        in.aux = idx; // program-local memory index
    }

    uint32_t dst = allocSlots(n.width);
    in.dst = dst;
    prog_.slotOf[id] = dst;
    prog_.instrs.push_back(in);
}

void
ProgramBuilder::addAll()
{
    // Construction order is topological (the builder API cannot
    // reference a node before it exists), and ascending order also
    // preserves memory write-port order.
    for (NodeId id = 0; id < nl_.numNodes(); ++id)
        addNode(id);
}

EvalProgram
ProgramBuilder::build()
{
    // Populate memory init images.
    prog_.memInit.resize(prog_.mems.size());
    for (size_t i = 0; i < prog_.mems.size(); ++i) {
        const ProgMem &pm = prog_.mems[i];
        const Memory &m = nl_.mem(pm.mem);
        auto &img = prog_.memInit[i];
        img.assign(uint64_t{pm.entryWords} * pm.depth, 0);
        for (size_t e = 0; e < m.init.size(); ++e)
            for (uint32_t w = 0; w < m.init[e].numWords(); ++w)
                img[e * pm.entryWords + w] = m.init[e].word(w);
    }
    return std::move(prog_);
}

EvalState::EvalState(const EvalProgram &prog, uint32_t lanes)
    : prog_(prog), lanes_(lanes ? lanes : 1)
{
    reset();
}

void
EvalState::reset()
{
    // Broadcast the scalar init images across all lanes (lane-major:
    // word w of lane l at [w * L + l]). At L == 1 this is a plain copy.
    const uint32_t L = lanes_;
    slots_.resize(uint64_t(prog_.initSlots.size()) * L);
    for (size_t w = 0; w < prog_.initSlots.size(); ++w)
        for (uint32_t l = 0; l < L; ++l)
            slots_[w * L + l] = prog_.initSlots[w];
    mems_.resize(prog_.memInit.size());
    for (size_t m = 0; m < prog_.memInit.size(); ++m) {
        const auto &init = prog_.memInit[m];
        mems_[m].resize(uint64_t(init.size()) * L);
        for (size_t w = 0; w < init.size(); ++w)
            for (uint32_t l = 0; l < L; ++l)
                mems_[m][w * L + l] = init[w];
    }
    refreshMemPtrs();
    markAllDirty();
}

void
EvalState::refreshMemPtrs()
{
    memPtrs_.resize(mems_.size());
    for (size_t i = 0; i < mems_.size(); ++i)
        memPtrs_[i] = mems_[i].data();
}

void
EvalState::setNativeEval(NativeEvalFn fn, std::shared_ptr<void> code,
                         NativeEvalFn commit, NativeEvalFn latch,
                         NativeEvalActFn act, NativeLatchActFn latchAct)
{
    nativeFn_ = fn;
    nativeCommit_ = fn ? commit : nullptr;
    nativeLatch_ = fn ? latch : nullptr;
    nativeAct_ = fn ? act : nullptr;
    nativeLatchAct_ = fn ? latchAct : nullptr;
    nativeCode_ = std::move(code);
    refreshMemPtrs();
}

bool
EvalState::enableActivity(bool on)
{
    if (on && !prog_.activity.built) {
        activity_ = false;
        return false;
    }
    activity_ = on;
    if (on) {
        dirty_.assign(prog_.activity.numGroups(), 1);
        lastGroupsTotal_ = prog_.activity.numGroups();
    }
    return activity_;
}

void
EvalState::markAllDirty()
{
    // std::fill, not memset: a program with no groups has an empty
    // (null-data) map, and memset(nullptr, ..., 0) is undefined.
    if (activity_)
        std::fill(dirty_.begin(), dirty_.end(), uint8_t{1});
}

void
EvalState::markRegReadersDirty(uint32_t progRegIndex)
{
    if (!activity_)
        return;
    for (uint32_t g : prog_.activity.regReaders[progRegIndex])
        dirty_[g] = 1;
}

void
EvalState::markMemReadersDirty(uint32_t memIndex)
{
    if (!activity_)
        return;
    for (uint32_t g : prog_.activity.memReaders[memIndex])
        dirty_[g] = 1;
}

BitVec
EvalState::readSlot(uint32_t slot, uint16_t width, uint32_t lane) const
{
    BitVec v;
    readSlotInto(slot, width, v, lane);
    return v;
}

void
EvalState::readSlotInto(uint32_t slot, uint16_t width, BitVec &out,
                        uint32_t lane) const
{
    uint32_t n = nw(width);
    const uint64_t *p = &slots_[uint64_t(slot) * lanes_ + lane];
    if (lanes_ == 1) {
        out.assign(width, p, n);
        return;
    }
    uint64_t tmp[nw(kMaxWidth)];
    for (uint32_t i = 0; i < n; ++i)
        tmp[i] = p[i * lanes_];
    out.assign(width, tmp, n);
}

void
EvalState::writeSlot(uint32_t slot, const BitVec &v)
{
    uint64_t *p = &slots_[uint64_t(slot) * lanes_];
    for (uint32_t i = 0; i < v.numWords(); ++i)
        for (uint32_t l = 0; l < lanes_; ++l)
            p[i * lanes_ + l] = v.word(i);
    // Host writes land on arbitrary slots (pokes, state import); the
    // conservative seed is a full re-eval.
    markAllDirty();
}

void
EvalState::writeSlotLane(uint32_t slot, const BitVec &v, uint32_t lane)
{
    uint64_t *p = &slots_[uint64_t(slot) * lanes_ + lane];
    for (uint32_t i = 0; i < v.numWords(); ++i)
        p[i * lanes_] = v.word(i);
    markAllDirty();
}

BitVec
EvalState::readMemEntry(uint32_t memIndex, uint64_t index, uint16_t width,
                        uint32_t lane) const
{
    const ProgMem &pm = prog_.mems[memIndex];
    if (index >= pm.depth)
        return BitVec(width);
    const uint64_t *p =
        &mems_[memIndex][(index * pm.entryWords) * lanes_ + lane];
    uint64_t words[nw(kMaxWidth)];
    for (uint32_t i = 0; i < pm.entryWords; ++i)
        words[i] = p[i * lanes_];
    BitVec v;
    v.assign(width, words, pm.entryWords);
    return v;
}

void
EvalState::writeMemEntry(uint32_t memIndex, uint64_t index,
                         const BitVec &v, uint32_t lane)
{
    const ProgMem &pm = prog_.mems[memIndex];
    if (index >= pm.depth)
        return;
    uint64_t *p = &mems_[memIndex][(index * pm.entryWords) * lanes_ + lane];
    for (uint32_t i = 0; i < pm.entryWords; ++i)
        p[i * lanes_] = i < v.numWords() ? v.word(i) : 0;
    markMemReadersDirty(memIndex);
}

// Computed-goto dispatch removes the per-instruction bounds check and
// branch mispredictions of a switch: each kernel jumps directly to the
// next instruction's kernel. Define PARENDI_SWITCH_DISPATCH to force
// the portable switch loop (also used by non-GNU compilers).
#if defined(__GNUC__) && !defined(PARENDI_SWITCH_DISPATCH)
#define PARENDI_COMPUTED_GOTO 1
#else
#define PARENDI_COMPUTED_GOTO 0
#endif

void
EvalState::evalComb()
{
    if (activity_) {
        evalActive();
        return;
    }
    lastInstrs_ = prog_.instrs.size();
    lastGroupsRun_ = lastGroupsTotal_ = prog_.activity.numGroups();
    if (nativeFn_) {
        nativeFn_(slots_.data(), memPtrs_.data());
        return;
    }
    if (lanes_ > 1) {
        evalCombGang();
        return;
    }
    execRange(prog_.instrs.data(),
              prog_.instrs.data() + prog_.instrs.size());
}

void
EvalState::execRange(const EvalInstr *ip, const EvalInstr *const end)
{
    if (ip == end)
        return;
#if PARENDI_COMPUTED_GOTO
    uint64_t *s = slots_.data();
    // One entry per EvalOp value, in enum order. Source/sink opcodes
    // never appear in instrs; they trap via op_bad.
    static const void *const jump[] = {
        // Generic tier (mirrors rtl::Op).
        &&op_bad, &&op_bad, &&op_bad, &&op_generic,      // Const..MemRead
        &&op_generic, &&op_generic, &&op_generic,        // Not..RedAnd
        &&op_generic, &&op_generic,                      // RedOr, RedXor
        &&op_generic, &&op_generic, &&op_generic,        // And, Or, Xor
        &&op_generic, &&op_generic, &&op_generic,        // Add, Sub, Mul
        &&op_generic, &&op_generic, &&op_generic,        // Shl, Shr, Sra
        &&op_generic, &&op_generic, &&op_generic,        // Eq, Ne, Ult
        &&op_generic, &&op_generic, &&op_generic,        // Ule, Slt, Sle
        &&op_generic, &&op_generic, &&op_generic,        // Mux..Slice
        &&op_generic, &&op_generic,                      // ZExt, SExt
        &&op_bad, &&op_bad, &&op_bad,                    // RegNext..Output
        // Specialized single-word tier.
        &&op_NotW, &&op_NegW, &&op_RedAndW, &&op_RedOrW, &&op_RedXorW,
        &&op_AndW, &&op_OrW, &&op_XorW, &&op_AddW, &&op_SubW, &&op_MulW,
        &&op_ShlW, &&op_ShrW, &&op_SraW,
        &&op_EqW, &&op_NeW, &&op_UltW, &&op_UleW, &&op_SltW, &&op_SleW,
        &&op_MuxW, &&op_ConcatW, &&op_SliceW, &&op_ZExtW, &&op_SExtW,
        &&op_MemReadW,
        // Fused superinstructions.
        &&op_AndNotW, &&op_OrNotW, &&op_XorNotW,
        &&op_EqMuxW, &&op_NeMuxW, &&op_UltMuxW, &&op_UleMuxW,
        &&op_SltMuxW, &&op_SleMuxW,
    };
    static_assert(sizeof(jump) / sizeof(jump[0]) ==
                      static_cast<size_t>(EvalOp::NumEvalOps),
                  "jump table must cover every EvalOp");

#define PARENDI_DISPATCH()                                              \
    do {                                                                \
        if (++ip == end)                                                \
            return;                                                     \
        goto *jump[static_cast<size_t>(ip->op)];                        \
    } while (0)

    goto *jump[static_cast<size_t>(ip->op)];

  op_generic:
    execGeneric(*ip, s);
    PARENDI_DISPATCH();
#define PARENDI_LABEL(name)                                             \
  op_##name:                                                            \
    k##name(*ip, s);                                                    \
    PARENDI_DISPATCH()
    PARENDI_LABEL(NotW);
    PARENDI_LABEL(NegW);
    PARENDI_LABEL(RedAndW);
    PARENDI_LABEL(RedOrW);
    PARENDI_LABEL(RedXorW);
    PARENDI_LABEL(AndW);
    PARENDI_LABEL(OrW);
    PARENDI_LABEL(XorW);
    PARENDI_LABEL(AddW);
    PARENDI_LABEL(SubW);
    PARENDI_LABEL(MulW);
    PARENDI_LABEL(ShlW);
    PARENDI_LABEL(ShrW);
    PARENDI_LABEL(SraW);
    PARENDI_LABEL(EqW);
    PARENDI_LABEL(NeW);
    PARENDI_LABEL(UltW);
    PARENDI_LABEL(UleW);
    PARENDI_LABEL(SltW);
    PARENDI_LABEL(SleW);
    PARENDI_LABEL(MuxW);
    PARENDI_LABEL(ConcatW);
    PARENDI_LABEL(SliceW);
    PARENDI_LABEL(ZExtW);
    PARENDI_LABEL(SExtW);
    PARENDI_LABEL(AndNotW);
    PARENDI_LABEL(OrNotW);
    PARENDI_LABEL(XorNotW);
    PARENDI_LABEL(EqMuxW);
    PARENDI_LABEL(NeMuxW);
    PARENDI_LABEL(UltMuxW);
    PARENDI_LABEL(UleMuxW);
    PARENDI_LABEL(SltMuxW);
    PARENDI_LABEL(SleMuxW);
#undef PARENDI_LABEL
  op_MemReadW:
    execMemReadW(*ip);
    PARENDI_DISPATCH();
  op_bad:
    panic("evalComb: non-executable opcode %s", evalOpName(ip->op));
#undef PARENDI_DISPATCH
#else
    for (; ip != end; ++ip)
        evalOne(*ip);
#endif
}

void
EvalState::evalActive()
{
    const ActivityPlan &ap = prog_.activity;
    lastGroupsTotal_ = ap.numGroups();
    if (nativeAct_) {
        uint64_t packed = nativeAct_(slots_.data(), memPtrs_.data(),
                                     dirty_.data());
        lastGroupsRun_ = static_cast<uint32_t>(packed >> 32);
        lastInstrs_ = static_cast<uint32_t>(packed);
        return;
    }
    // Forward over-approximating sweep: every successor edge points to
    // a later group (topological instruction order), so one pass in
    // group order both executes all dirty groups and propagates
    // dirtiness downstream. Skipped groups keep their previous outputs,
    // which are still correct — pure combinational logic over inputs
    // that did not change.
    const EvalInstr *base = prog_.instrs.data();
    uint64_t instrs = 0;
    uint32_t run = 0;
    const uint32_t ng = ap.numGroups();
    for (uint32_t g = 0; g < ng; ++g) {
        if (!dirty_[g])
            continue;
        dirty_[g] = 0;
        const ActivityGroup &grp = ap.groups[g];
        if (lanes_ > 1) {
            for (uint32_t i = grp.beginInstr; i < grp.endInstr; ++i)
                execGangInstr(base[i]);
        } else {
            execRange(base + grp.beginInstr, base + grp.endInstr);
        }
        for (uint32_t k = grp.succBegin; k < grp.succEnd; ++k)
            dirty_[ap.succs[k]] = 1;
        instrs += grp.endInstr - grp.beginInstr;
        ++run;
    }
    lastInstrs_ = instrs;
    lastGroupsRun_ = run;
}

void
EvalState::evalOne(const EvalInstr &in)
{
    if (lanes_ > 1) {
        execGangInstr(in);
        return;
    }
    if (isGenericEvalOp(in.op))
        execGeneric(in, slots_.data());
    else
        execSpecial(in, slots_.data());
}

void
EvalState::execSpecial(const EvalInstr &in, uint64_t *s)
{
    switch (in.op) {
      case EvalOp::NotW: kNotW(in, s); break;
      case EvalOp::NegW: kNegW(in, s); break;
      case EvalOp::RedAndW: kRedAndW(in, s); break;
      case EvalOp::RedOrW: kRedOrW(in, s); break;
      case EvalOp::RedXorW: kRedXorW(in, s); break;
      case EvalOp::AndW: kAndW(in, s); break;
      case EvalOp::OrW: kOrW(in, s); break;
      case EvalOp::XorW: kXorW(in, s); break;
      case EvalOp::AddW: kAddW(in, s); break;
      case EvalOp::SubW: kSubW(in, s); break;
      case EvalOp::MulW: kMulW(in, s); break;
      case EvalOp::ShlW: kShlW(in, s); break;
      case EvalOp::ShrW: kShrW(in, s); break;
      case EvalOp::SraW: kSraW(in, s); break;
      case EvalOp::EqW: kEqW(in, s); break;
      case EvalOp::NeW: kNeW(in, s); break;
      case EvalOp::UltW: kUltW(in, s); break;
      case EvalOp::UleW: kUleW(in, s); break;
      case EvalOp::SltW: kSltW(in, s); break;
      case EvalOp::SleW: kSleW(in, s); break;
      case EvalOp::MuxW: kMuxW(in, s); break;
      case EvalOp::ConcatW: kConcatW(in, s); break;
      case EvalOp::SliceW: kSliceW(in, s); break;
      case EvalOp::ZExtW: kZExtW(in, s); break;
      case EvalOp::SExtW: kSExtW(in, s); break;
      case EvalOp::MemReadW: execMemReadW(in); break;
      case EvalOp::AndNotW: kAndNotW(in, s); break;
      case EvalOp::OrNotW: kOrNotW(in, s); break;
      case EvalOp::XorNotW: kXorNotW(in, s); break;
      case EvalOp::EqMuxW: kEqMuxW(in, s); break;
      case EvalOp::NeMuxW: kNeMuxW(in, s); break;
      case EvalOp::UltMuxW: kUltMuxW(in, s); break;
      case EvalOp::UleMuxW: kUleMuxW(in, s); break;
      case EvalOp::SltMuxW: kSltMuxW(in, s); break;
      case EvalOp::SleMuxW: kSleMuxW(in, s); break;
      default:
        panic("execSpecial: unexpected op %s", evalOpName(in.op));
    }
}

void
EvalState::execMemReadW(const EvalInstr &in)
{
    const ProgMem &pm = prog_.mems[in.aux];
    uint64_t addr = slots_[in.a];
    slots_[in.dst] = addr < pm.depth ? mems_[in.aux][addr] : 0;
}

void
EvalState::execGeneric(const EvalInstr &in, uint64_t *s)
{
    {
        uint64_t *d = s + in.dst;
        const uint64_t *a = s + in.a;
        const uint64_t *b = s + in.b;
        uint32_t n = nw(in.width);
        switch (static_cast<Op>(in.op)) {
          case Op::Not:
            for (uint32_t i = 0; i < n; ++i)
                d[i] = ~a[i];
            normalize(d, in.width);
            break;
          case Op::Neg: {
            unsigned __int128 borrow = 0;
            for (uint32_t i = 0; i < n; ++i) {
                unsigned __int128 v = static_cast<unsigned __int128>(0)
                    - a[i] - borrow;
                d[i] = static_cast<uint64_t>(v);
                borrow = a[i] || borrow ? 1 : 0;
            }
            normalize(d, in.width);
            break;
          }
          case Op::RedAnd: {
            bool all = true;
            uint32_t na = nw(in.wa);
            for (uint32_t i = 0; i + 1 < na; ++i)
                all &= (a[i] == ~uint64_t{0});
            all &= (a[na - 1] == topMask(in.wa));
            d[0] = all;
            break;
          }
          case Op::RedOr:
            d[0] = !isZeroVal(a, in.wa);
            break;
          case Op::RedXor: {
            uint64_t acc = 0;
            for (uint32_t i = 0; i < nw(in.wa); ++i)
                acc ^= a[i];
            d[0] = static_cast<uint64_t>(std::popcount(acc)) & 1;
            break;
          }
          case Op::And:
            for (uint32_t i = 0; i < n; ++i)
                d[i] = a[i] & b[i];
            break;
          case Op::Or:
            for (uint32_t i = 0; i < n; ++i)
                d[i] = a[i] | b[i];
            break;
          case Op::Xor:
            for (uint32_t i = 0; i < n; ++i)
                d[i] = a[i] ^ b[i];
            break;
          case Op::Add:
            addVal(d, a, b, in.width);
            break;
          case Op::Sub:
            subVal(d, a, b, in.width);
            break;
          case Op::Mul:
            mulVal(d, a, b, in.width);
            break;
          case Op::Shl:
            shlVal(d, a, shiftAmount(b, in.wb), in.width);
            break;
          case Op::Shr:
            shrVal(d, a, shiftAmount(b, in.wb), in.width);
            break;
          case Op::Sra:
            sraVal(d, a, shiftAmount(b, in.wb), in.width);
            break;
          case Op::Eq:
            d[0] = ucmp(a, b, in.wa) == 0;
            break;
          case Op::Ne:
            d[0] = ucmp(a, b, in.wa) != 0;
            break;
          case Op::Ult:
            d[0] = ucmp(a, b, in.wa) < 0;
            break;
          case Op::Ule:
            d[0] = ucmp(a, b, in.wa) <= 0;
            break;
          case Op::Slt:
            d[0] = scmp(a, b, in.wa) < 0;
            break;
          case Op::Sle:
            d[0] = scmp(a, b, in.wa) <= 0;
            break;
          case Op::Mux: {
            const uint64_t *src = (a[0] & 1) ? b : s + in.c;
            copyVal(d, src, n);
            break;
          }
          case Op::Concat: {
            // d = (a << wb) | b
            uint32_t nb = nw(in.wb);
            copyVal(d, b, nb);
            for (uint32_t i = nb; i < n; ++i)
                d[i] = 0;
            // OR in the high part shifted left by wb bits.
            uint32_t word_shift = in.wb >> 6;
            uint32_t bit_shift = in.wb & 63;
            uint32_t na = nw(in.wa);
            for (uint32_t i = 0; i < na; ++i) {
                uint32_t lo_idx = i + word_shift;
                if (lo_idx < n)
                    d[lo_idx] |= bit_shift ? (a[i] << bit_shift) : a[i];
                if (bit_shift && lo_idx + 1 < n)
                    d[lo_idx + 1] |= a[i] >> (64 - bit_shift);
            }
            normalize(d, in.width);
            break;
          }
          case Op::Slice: {
            // Logical right shift of a by aux, truncated to width.
            uint32_t word_shift = in.aux >> 6;
            uint32_t bit_shift = in.aux & 63;
            uint32_t na = nw(in.wa);
            for (uint32_t i = 0; i < n; ++i) {
                uint64_t lo = i + word_shift < na ? a[i + word_shift] : 0;
                uint64_t hi = (bit_shift && i + word_shift + 1 < na)
                    ? a[i + word_shift + 1] : 0;
                d[i] = bit_shift
                    ? (lo >> bit_shift) | (hi << (64 - bit_shift)) : lo;
            }
            normalize(d, in.width);
            break;
          }
          case Op::ZExt: {
            uint32_t na = nw(in.wa);
            copyVal(d, a, na);
            for (uint32_t i = na; i < n; ++i)
                d[i] = 0;
            break;
          }
          case Op::SExt: {
            uint32_t na = nw(in.wa);
            copyVal(d, a, na);
            bool sign = (a[(in.wa - 1) >> 6] >> ((in.wa - 1) & 63)) & 1;
            for (uint32_t i = na; i < n; ++i)
                d[i] = sign ? ~uint64_t{0} : 0;
            if (sign) {
                for (uint32_t bit = in.wa; bit < (na << 6) && bit < in.width;
                     ++bit)
                    d[bit >> 6] |= uint64_t{1} << (bit & 63);
            }
            normalize(d, in.width);
            break;
          }
          case Op::MemRead: {
            const ProgMem &pm = prog_.mems[in.aux];
            const LaneWords &img = mems_[in.aux];
            uint64_t addr = shiftAmount(a, in.wa); // saturating read
            if (addr < pm.depth)
                copyVal(d, img.data() + addr * pm.entryWords,
                        pm.entryWords);
            else
                zeroVal(d, pm.entryWords);
            break;
          }
          default:
            panic("execGeneric: unexpected op %s", evalOpName(in.op));
        }
    }
}

// -- Gang (lanes > 1) interpreter tier -----------------------------------
//
// The correctness fallback when no cgen kernel is attached: each
// instruction is executed once per lane by gathering that lane's
// word-strided operands into a scalar-layout staging buffer, running
// the unmodified scalar kernel on it, and scattering the destination
// back. Memory reads are handled directly against the strided image
// (the staging remap cannot carry a memory index). Bit-identical to a
// scalar EvalState per lane by construction — it runs the same kernels.

void
EvalState::evalCombGang()
{
    for (const EvalInstr &in : prog_.instrs)
        execGangInstr(in);
}

namespace {

/** saturatingWideRead over a lane-strided value. */
inline uint64_t
stridedSatRead(const uint64_t *p, uint32_t numWords, uint32_t stride)
{
    for (uint32_t i = 1; i < numWords; ++i)
        if (p[i * stride])
            return UINT64_MAX;
    return p[0];
}

} // namespace

void
EvalState::execGangInstr(const EvalInstr &in)
{
    const uint32_t L = lanes_;
    uint64_t *s = slots_.data();

    if (in.op == EvalOp::MemReadW) {
        const ProgMem &pm = prog_.mems[in.aux];
        const uint64_t *img = mems_[in.aux].data();
        uint64_t *d = s + uint64_t(in.dst) * L;
        const uint64_t *a = s + uint64_t(in.a) * L;
        for (uint32_t l = 0; l < L; ++l) {
            uint64_t addr = a[l];
            d[l] = addr < pm.depth ? img[addr * L + l] : 0;
        }
        return;
    }
    if (in.op == EvalOp::MemRead) {
        const ProgMem &pm = prog_.mems[in.aux];
        const uint64_t *img = mems_[in.aux].data();
        uint32_t ew = pm.entryWords;
        uint32_t na = nw(in.wa);
        for (uint32_t l = 0; l < L; ++l) {
            const uint64_t *a = s + uint64_t(in.a) * L + l;
            uint64_t addr = stridedSatRead(a, na, L);
            uint64_t *d = s + uint64_t(in.dst) * L + l;
            if (addr < pm.depth) {
                const uint64_t *e = img + (addr * ew) * L + l;
                for (uint32_t i = 0; i < ew; ++i)
                    d[i * L] = e[i * L];
            } else {
                for (uint32_t i = 0; i < ew; ++i)
                    d[i * L] = 0;
            }
        }
        return;
    }

    // Staging buffer in scalar layout: [a | b | c | aux | dst], one
    // kMaxWidth-sized region each (2.5 KiB on the stack).
    constexpr uint32_t NW = nw(kMaxWidth);
    uint64_t buf[5 * NW];
    EvalInstr t = in;
    t.a = 0;
    t.b = NW;
    t.c = 2 * NW;
    t.dst = 4 * NW;
    uint32_t ops[4];
    int arity = evalInstrOperands(in, ops);
    bool generic = isGenericEvalOp(in.op);
    if (!generic && arity == 4)
        t.aux = 3 * NW; // CmpMux 4th operand; otherwise aux is immediate
    uint32_t na = nw(in.wa ? in.wa : 1);
    uint32_t nb = nw(in.wb ? in.wb : 1);
    uint32_t nc = nw(in.width ? in.width : 1);
    uint32_t nd = nw(in.width ? in.width : 1);
    for (uint32_t l = 0; l < L; ++l) {
        const uint64_t *pa = s + uint64_t(in.a) * L + l;
        for (uint32_t i = 0; i < na; ++i)
            buf[i] = pa[i * L];
        if (arity >= 2) {
            const uint64_t *pb = s + uint64_t(in.b) * L + l;
            for (uint32_t i = 0; i < nb; ++i)
                buf[NW + i] = pb[i * L];
        }
        if (arity >= 3) {
            const uint64_t *pc = s + uint64_t(in.c) * L + l;
            for (uint32_t i = 0; i < nc; ++i)
                buf[2 * NW + i] = pc[i * L];
        }
        if (!generic && arity == 4)
            buf[3 * NW] = s[uint64_t(in.aux) * L + l];
        if (generic)
            execGeneric(t, buf);
        else
            execSpecial(t, buf);
        uint64_t *pd = s + uint64_t(in.dst) * L + l;
        for (uint32_t i = 0; i < nd; ++i)
            pd[i * L] = buf[4 * NW + i];
    }
}

void
EvalState::commitWritesGang()
{
    const uint32_t L = lanes_;
    uint64_t *s = slots_.data();
    for (const ProgWrite &w : prog_.writes) {
        const ProgMem &pm = prog_.mems[w.memIndex];
        uint64_t *img = mems_[w.memIndex].data();
        uint32_t na = nw(w.addrWidth ? w.addrWidth : 1);
        for (uint32_t l = 0; l < L; ++l) {
            if (!(s[uint64_t(w.en) * L + l] & 1))
                continue;
            uint64_t addr =
                stridedSatRead(s + uint64_t(w.addr) * L + l, na, L);
            if (addr >= pm.depth)
                continue;
            const uint64_t *dp = s + uint64_t(w.data) * L + l;
            uint64_t *ep = img + (addr * pm.entryWords) * L + l;
            for (uint32_t i = 0; i < pm.entryWords; ++i)
                ep[i * L] = dp[i * L];
        }
    }
}

void
EvalState::commitWrites()
{
    if (activity_) {
        commitWritesActive();
        return;
    }
    if (nativeCommit_) {
        nativeCommit_(slots_.data(), memPtrs_.data());
        return;
    }
    if (lanes_ > 1) {
        commitWritesGang();
        return;
    }
    uint64_t *s = slots_.data();
    for (const ProgWrite &w : prog_.writes) {
        if (!(s[w.en] & 1))
            continue;
        const ProgMem &pm = prog_.mems[w.memIndex];
        uint64_t addr = shiftAmount(s + w.addr, w.addrWidth);
        if (addr >= pm.depth)
            continue;
        copyVal(mems_[w.memIndex].data() + addr * pm.entryWords,
                s + w.data, pm.entryWords);
    }
}

void
EvalState::commitWritesActive()
{
    // The interpreted commit, instrumented: any write that actually
    // lands marks the groups reading that memory dirty. Runs in place
    // of the native commit kernel when activity is on — write ports
    // are few, so the seeding accuracy is worth the interpreted loop.
    const uint32_t L = lanes_;
    uint64_t *s = slots_.data();
    for (const ProgWrite &w : prog_.writes) {
        const ProgMem &pm = prog_.mems[w.memIndex];
        uint64_t *img = mems_[w.memIndex].data();
        uint32_t na = nw(w.addrWidth ? w.addrWidth : 1);
        bool wrote = false;
        for (uint32_t l = 0; l < L; ++l) {
            if (!(s[uint64_t(w.en) * L + l] & 1))
                continue;
            uint64_t addr =
                stridedSatRead(s + uint64_t(w.addr) * L + l, na, L);
            if (addr >= pm.depth)
                continue;
            const uint64_t *dp = s + uint64_t(w.data) * L + l;
            uint64_t *ep = img + (addr * pm.entryWords) * L + l;
            for (uint32_t i = 0; i < pm.entryWords; ++i)
                ep[i * L] = dp[i * L];
            wrote = true;
        }
        if (wrote)
            markMemReadersDirty(w.memIndex);
    }
}

void
EvalState::latchRegisters()
{
    if (activity_) {
        latchRegistersActive();
        return;
    }
    if (nativeLatch_) {
        nativeLatch_(slots_.data(), memPtrs_.data());
        return;
    }
    // Two phases (double buffering): a register's next-value slot may
    // alias another register's current-value slot (e.g. a swap), so
    // all next values are staged before any current value is written.
    // Lane-major layout keeps each register's words-across-lanes block
    // contiguous, so the gang case only scales the word counts by L.
    uint64_t *s = slots_.data();
    const uint64_t L = lanes_;
    scratch_.clear();
    for (const ProgReg &r : prog_.regs) {
        if (!r.owned || r.next == kNoSlot)
            continue;
        const uint64_t *p = s + uint64_t(r.next) * L;
        scratch_.insert(scratch_.end(), p, p + nw(r.width) * L);
    }
    size_t at = 0;
    for (const ProgReg &r : prog_.regs) {
        if (!r.owned || r.next == kNoSlot)
            continue;
        uint64_t n = nw(r.width) * L;
        std::memcpy(s + uint64_t(r.cur) * L, scratch_.data() + at,
                    n * sizeof(uint64_t));
        at += n;
    }
}

void
EvalState::latchRegistersActive()
{
    // The comb/seq split's sequential half: the latch itself stays
    // unconditional (every owned register is staged and written every
    // cycle), but each register's staged value is compared against its
    // current one, and only a real change marks the register's reader
    // groups dirty. The lane-major block covers all lanes at once, so
    // a gang group is live if any lane's register changed.
    if (nativeLatchAct_) {
        nativeLatchAct_(slots_.data(), dirty_.data());
        return;
    }
    uint64_t *s = slots_.data();
    const uint64_t L = lanes_;
    scratch_.clear();
    for (const ProgReg &r : prog_.regs) {
        if (!r.owned || r.next == kNoSlot)
            continue;
        const uint64_t *p = s + uint64_t(r.next) * L;
        scratch_.insert(scratch_.end(), p, p + nw(r.width) * L);
    }
    size_t at = 0;
    const uint32_t nregs = static_cast<uint32_t>(prog_.regs.size());
    for (uint32_t ri = 0; ri < nregs; ++ri) {
        const ProgReg &r = prog_.regs[ri];
        if (!r.owned || r.next == kNoSlot)
            continue;
        uint64_t n = nw(r.width) * L;
        uint64_t *cur = s + uint64_t(r.cur) * L;
        if (std::memcmp(cur, scratch_.data() + at,
                        n * sizeof(uint64_t)) != 0) {
            std::memcpy(cur, scratch_.data() + at,
                        n * sizeof(uint64_t));
            markRegReadersDirty(ri);
        }
        at += n;
    }
}

void
EvalState::step()
{
    evalComb();
    commitWrites();
    latchRegisters();
}

} // namespace parendi::rtl
