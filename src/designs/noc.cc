/**
 * @file
 * The srN / lrN mesh-NoC SoCs (paper §6): an N x N mesh of XY-routed
 * wormhole-free (single-flit) routers. Every node hosts either a
 * processor core with a network interface (NI) that injects
 * round-robin traffic, or (three corner nodes) an "uncore" responder
 * that bounces packets back to their source. srN uses the multicycle
 * pico core; lrN uses the pipelined rocket core with the multiplier
 * datapath, larger memories and a wider flit payload.
 *
 * Router microarchitecture: five two-deep input FIFOs (N/E/S/W/L),
 * dimension-ordered (XY) routing on the FIFO heads, *rotating*-
 * priority arbitration per output (a shared rotation counter walks the
 * five ports), credit-free conservative flow control (a hop fires only
 * when the downstream FIFO's tail slot was free at the start of the
 * cycle; ejection always accepts), and per-port arrival counters.
 * Flits are never dropped in the network; the test suite checks
 * conservation (tx == rx + in-flight).
 */

#include "designs/designs.hh"

#include <array>

#include "designs/common.hh"
#include "designs/isa.hh"
#include "util/strcat.hh"

namespace parendi::designs {

using namespace rtl;

namespace {

constexpr int kN = 0, kE = 1, kS = 2, kW = 3, kL = 4;
constexpr uint32_t kCoordBits = 4;

/** Direction of the facing port on the neighbor. */
int
opposite(int dir)
{
    switch (dir) {
      case kN: return kS;
      case kE: return kW;
      case kS: return kN;
      case kW: return kE;
      default: return kL;
    }
}

struct FlitFields
{
    Wire valid, dx, dy, sx, sy, payload;
};

} // namespace

Netlist
makeMesh(const MeshConfig &cfg)
{
    uint32_t n = cfg.n;
    if (n < 2 || n > 15)
        fatal("makeMesh: mesh size %u outside [2,15]", n);
    if (cfg.injectPeriod == 0 || cfg.injectPeriod > 255)
        fatal("makeMesh: inject period %u outside [1,255]",
              cfg.injectPeriod);
    bool large = cfg.core == MeshCore::Large;
    uint32_t pw = large ? 64 : 16;                 // payload bits
    uint32_t fw = 1 + 4 * kCoordBits + pw;         // flit width

    Design d(strCat(large ? "lr" : "sr", n));

    auto flit_fields = [&](Wire f) {
        FlitFields ff;
        ff.valid = f.bit(0);
        ff.dx = f.slice(1, kCoordBits);
        ff.dy = f.slice(1 + kCoordBits, kCoordBits);
        ff.sx = f.slice(1 + 2 * kCoordBits, kCoordBits);
        ff.sy = f.slice(1 + 3 * kCoordBits, kCoordBits);
        ff.payload = f.slice(1 + 4 * kCoordBits, pw);
        return ff;
    };
    auto make_flit = [&](Wire valid, Wire dx, Wire dy, Wire sx, Wire sy,
                         Wire payload) {
        // payload ++ sy ++ sx ++ dy ++ dx ++ valid
        return payload.concat(sy).concat(sx).concat(dy).concat(dx)
            .concat(valid);
    };
    Wire zero_flit = d.lit(BitVec(fw, uint64_t{0}));

    struct Node
    {
        // Two-deep FIFO per input port: e0 = head, e1 = tail.
        std::array<RegId, 5> e0Reg, e1Reg;
        std::array<Wire, 5> e0, e1;
        std::array<Wire, 5> headValid, tailValid;
        std::array<std::array<Wire, 5>, 5> req;    // req[p][o]
        std::array<std::array<Wire, 5>, 5> grant;  // grant[p][o]
        std::array<Wire, 5> outReq;                // any grant for o
        std::array<Wire, 5> outFlit;
        std::array<Wire, 5> win;                   // head p drains
        bool uncore = false;
        CoreIo core;
        RegId rr;                                  // rotation counter
        RegId txCount, rxCount, rxAcc, pending, injCnt, destX, destY;
        std::array<RegId, 5> arrCount;             // per-port arrivals
    };
    std::vector<Node> nodes(n * n);
    auto at = [&](uint32_t x, uint32_t y) -> Node & {
        return nodes[y * n + x];
    };
    auto is_uncore = [&](uint32_t x, uint32_t y) {
        return (x == 0 && y == 0) || (x == 1 && y == 0) ||
            (x == 0 && y == 1);
    };
    static const char *kPortName[5] = {"bn", "be", "bs", "bw", "bl"};

    // ---- Pass 1: state elements and cores ------------------------------
    for (uint32_t y = 0; y < n; ++y) {
        for (uint32_t x = 0; x < n; ++x) {
            Node &nd = at(x, y);
            std::string px = strCat("n", x, "_", y, "_");
            for (int p = 0; p < 5; ++p) {
                nd.e0Reg[p] = d.reg(px + kPortName[p] + "0",
                                    static_cast<uint16_t>(fw), 0);
                nd.e1Reg[p] = d.reg(px + kPortName[p] + "1",
                                    static_cast<uint16_t>(fw), 0);
                nd.e0[p] = d.read(nd.e0Reg[p]);
                nd.e1[p] = d.read(nd.e1Reg[p]);
                nd.headValid[p] = nd.e0[p].bit(0);
                nd.tailValid[p] = nd.e1[p].bit(0);
                nd.arrCount[p] = d.reg(
                    px + "arr_" + kPortName[p], 16, 0);
            }
            nd.rr = d.reg(px + "rr", 3, (x + 2 * y) % 5);
            nd.txCount = d.reg(px + "tx", 32, 0);
            nd.rxCount = d.reg(px + "rx", 32, 0);
            nd.rxAcc = d.reg(px + "rxacc", static_cast<uint16_t>(pw), 0);
            nd.uncore = is_uncore(x, y);
            if (nd.uncore) {
                nd.pending = d.reg(px + "pending",
                                   static_cast<uint16_t>(fw), 0);
            } else {
                CoreConfig cc;
                cc.prefix = px + "c_";
                cc.romDepth = large ? 128 : 64;
                cc.ramDepth = large ? 256 : 64;
                cc.program = programChurn();
                nd.core = large ? buildRocketCore(d, cc, true)
                                : buildPicoCore(d, cc);
                nd.injCnt = d.reg(px + "injcnt", 8, (x + y) %
                                  cfg.injectPeriod);
                nd.destX = d.reg(px + "destx", kCoordBits, (x + 1) % n);
                nd.destY = d.reg(px + "desty", kCoordBits, y);
            }
        }
    }

    // ---- Pass 2: routing and rotating-priority arbitration --------------
    for (uint32_t y = 0; y < n; ++y) {
        for (uint32_t x = 0; x < n; ++x) {
            Node &nd = at(x, y);
            Wire myx = d.lit(kCoordBits, x);
            Wire myy = d.lit(kCoordBits, y);
            for (int p = 0; p < 5; ++p) {
                FlitFields f = flit_fields(nd.e0[p]);
                Wire eqx = f.dx == myx;
                Wire eqy = f.dy == myy;
                Wire v = nd.headValid[p];
                nd.req[p][kE] = v & myx.ult(f.dx);
                nd.req[p][kW] = v & f.dx.ult(myx);
                nd.req[p][kS] = v & eqx & myy.ult(f.dy);
                nd.req[p][kN] = v & eqx & f.dy.ult(myy);
                nd.req[p][kL] = v & eqx & eqy;
            }
            // Rotation predicate per possible offset.
            Wire rr_v = d.read(nd.rr);
            std::array<Wire, 5> rr_is;
            for (int r = 0; r < 5; ++r)
                rr_is[r] = eqConst(d, rr_v, r);
            d.next(nd.rr, d.mux(eqConst(d, rr_v, 4), d.lit(3, 0),
                                rr_v + d.lit(3, 1)));

            for (int o = 0; o < 5; ++o) {
                // Grant chains for each of the 5 rotations, then
                // select by the rotation counter.
                std::array<std::array<Wire, 5>, 5> gr; // gr[r][p]
                for (int r = 0; r < 5; ++r) {
                    Wire blocked = d.lit(1, 0);
                    for (int i = 0; i < 5; ++i) {
                        int p = (r + i) % 5;
                        gr[r][p] = nd.req[p][o] & ~blocked;
                        blocked = blocked | nd.req[p][o];
                    }
                }
                for (int p = 0; p < 5; ++p) {
                    Wire g = d.lit(1, 0);
                    for (int r = 0; r < 5; ++r)
                        g = g | (rr_is[r] & gr[r][p]);
                    nd.grant[p][o] = g;
                }
                Wire any = d.lit(1, 0);
                Wire flit = zero_flit;
                for (int p = 0; p < 5; ++p) {
                    any = any | nd.grant[p][o];
                    flit = d.mux(nd.grant[p][o], nd.e0[p], flit);
                }
                nd.outReq[o] = any;
                nd.outFlit[o] = flit;
            }
        }
    }

    // ---- Pass 3: transfers, FIFO updates, NIs ---------------------------
    auto neighbor = [&](uint32_t x, uint32_t y, int o, uint32_t &nx,
                        uint32_t &ny) -> bool {
        int64_t tx = x, ty = y;
        switch (o) {
          case kN: ty -= 1; break;
          case kS: ty += 1; break;
          case kE: tx += 1; break;
          case kW: tx -= 1; break;
          default: return false;
        }
        if (tx < 0 || ty < 0 || tx >= static_cast<int64_t>(n) ||
            ty >= static_cast<int64_t>(n))
            return false;
        nx = static_cast<uint32_t>(tx);
        ny = static_cast<uint32_t>(ty);
        return true;
    };

    std::vector<Wire> tx_reads, rx_reads;
    for (uint32_t y = 0; y < n; ++y) {
        for (uint32_t x = 0; x < n; ++x) {
            Node &nd = at(x, y);
            // transferOk[o]: downstream tail slot free (ejection
            // always accepts).
            std::array<Wire, 5> transfer_ok;
            for (int o = 0; o < 5; ++o) {
                if (o == kL) {
                    transfer_ok[o] = d.lit(1, 1);
                    continue;
                }
                uint32_t nx2, ny2;
                if (neighbor(x, y, o, nx2, ny2)) {
                    Node &nb = at(nx2, ny2);
                    transfer_ok[o] = ~nb.tailValid[opposite(o)];
                } else {
                    transfer_ok[o] = d.lit(1, 0);
                }
            }
            for (int p = 0; p < 5; ++p) {
                Wire w = d.lit(1, 0);
                for (int o = 0; o < 5; ++o)
                    w = w | (nd.grant[p][o] & transfer_ok[o]);
                nd.win[p] = w;
            }

            // Ejection (output L).
            Wire eject_v = nd.outReq[kL];
            FlitFields ef = flit_fields(nd.outFlit[kL]);
            d.next(nd.rxCount,
                   d.read(nd.rxCount) +
                       d.mux(eject_v, d.lit(32, 1), d.lit(32, 0)));
            d.next(nd.rxAcc, d.read(nd.rxAcc) ^
                   d.mux(eject_v, ef.payload,
                         d.lit(BitVec(pw, uint64_t{0}))));
            rx_reads.push_back(d.read(nd.rxCount));

            // FIFO updates for the four mesh ports.
            auto fifo_update = [&](int p, Wire enq, Wire inc_flit) {
                Wire deq = nd.headValid[p] & nd.win[p];
                Wire inc = d.mux(enq, inc_flit, zero_flit);
                Wire e0n = d.mux(
                    deq, d.mux(nd.tailValid[p], nd.e1[p], inc),
                    d.mux(nd.headValid[p], nd.e0[p], inc));
                Wire e1n = d.mux(
                    deq, zero_flit,
                    d.mux(nd.headValid[p] & ~nd.tailValid[p], inc,
                          d.mux(nd.tailValid[p], nd.e1[p],
                                zero_flit)));
                d.next(nd.e0Reg[p], e0n);
                d.next(nd.e1Reg[p], e1n);
                d.next(nd.arrCount[p],
                       d.read(nd.arrCount[p]) +
                           d.mux(enq, d.lit(16, 1), d.lit(16, 0)));
            };

            for (int p = 0; p < 5; ++p) {
                if (p == kL)
                    continue;
                Wire enq = d.lit(1, 0);
                Wire inc = zero_flit;
                uint32_t nx2, ny2;
                if (neighbor(x, y, p, nx2, ny2)) {
                    Node &nb = at(nx2, ny2);
                    int o = opposite(p); // their output facing us
                    enq = nb.outReq[o] & ~nd.tailValid[p];
                    inc = nb.outFlit[o];
                }
                fifo_update(p, enq, inc);
            }

            // Local port: injection from the NI. Only the tail-free
            // condition gates injection (same rule as the links).
            Wire slot_free = ~nd.tailValid[kL];
            Wire inj_flit = zero_flit;
            Wire do_inject = d.lit(1, 0);
            if (nd.uncore) {
                Wire pend = d.read(nd.pending);
                Wire pend_v = pend.bit(0);
                do_inject = pend_v & slot_free;
                inj_flit = pend;
                // Reply to the source of an ejected flit; if a new
                // ejection races a still-pending reply, the newer one
                // replaces it (the old rx was already counted).
                Wire reply = make_flit(
                    d.lit(1, 1), ef.sx, ef.sy, d.lit(kCoordBits, x),
                    d.lit(kCoordBits, y),
                    ef.payload + d.lit(static_cast<uint16_t>(pw), 1));
                d.next(nd.pending,
                       d.mux(eject_v, reply,
                             d.mux(do_inject, zero_flit, pend)));
            } else {
                Wire cnt = d.read(nd.injCnt);
                Wire fire = eqConst(d, cnt, 0);
                do_inject = fire & slot_free;
                d.next(nd.injCnt,
                       d.mux(do_inject,
                             d.lit(8, cfg.injectPeriod - 1),
                             d.mux(fire, cnt, cnt - d.lit(8, 1))));
                Wire dx = d.read(nd.destX);
                Wire dy = d.read(nd.destY);
                Wire payload = nd.core.probe.resize(
                    static_cast<uint16_t>(pw));
                inj_flit = make_flit(d.lit(1, 1), dx, dy,
                                     d.lit(kCoordBits, x),
                                     d.lit(kCoordBits, y), payload);
                // Round-robin destination walk.
                Wire x_wrap = eqConst(d, dx, n - 1);
                Wire dx_next = d.mux(x_wrap, d.lit(kCoordBits, 0),
                                     dx + d.lit(kCoordBits, 1));
                Wire y_wrap = eqConst(d, dy, n - 1);
                Wire dy_next =
                    d.mux(y_wrap, d.lit(kCoordBits, 0),
                          dy + d.lit(kCoordBits, 1));
                d.next(nd.destX, d.mux(do_inject, dx_next, dx));
                d.next(nd.destY, d.mux(do_inject & x_wrap, dy_next, dy));
            }
            fifo_update(kL, do_inject, inj_flit);
            d.next(nd.txCount,
                   d.read(nd.txCount) +
                       d.mux(do_inject, d.lit(32, 1), d.lit(32, 0)));
            tx_reads.push_back(d.read(nd.txCount));
        }
    }

    Wire tx_total =
        reduceTree(tx_reads, [](Wire a, Wire b) { return a + b; });
    Wire rx_total =
        reduceTree(rx_reads, [](Wire a, Wire b) { return a + b; });
    d.output("tx_total", tx_total);
    d.output("rx_total", rx_total);
    return d.finish();
}

Netlist
makeSr(uint32_t n)
{
    MeshConfig cfg;
    cfg.n = n;
    cfg.core = MeshCore::Small;
    return makeMesh(cfg);
}

Netlist
makeLr(uint32_t n)
{
    MeshConfig cfg;
    cfg.n = n;
    cfg.core = MeshCore::Large;
    return makeMesh(cfg);
}

} // namespace parendi::designs
