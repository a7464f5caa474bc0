/**
 * @file
 * SHA-256d miner engines (stand-in for the open-source FPGA bitcoin
 * miner of paper §4.3). Each engine performs one SHA-256 compression
 * round per cycle over a single 512-bit header block whose word 3 is
 * the nonce, then feeds the 256-bit digest through a second
 * compression (SHA-256d), checks the difficulty target, increments the
 * nonce and repeats. The round constants K live in a shared read-only
 * array. All engine registers are similar 32-bit fibers, making the
 * design's fiber population well balanced (paper Fig. 6b).
 */

#include "designs/designs.hh"

#include <array>

#include "designs/common.hh"
#include "util/strcat.hh"

namespace parendi::designs {

using namespace rtl;

namespace {

const std::array<uint32_t, 64> kSha256K = {
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

const std::array<uint32_t, 8> kSha256Iv = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/** The fixed header block; word 3 is replaced by the nonce. */
const std::array<uint32_t, 16> kHeader = {
    0x02000000, 0x17975b97, 0xc18ed1f7, 0x00000000 /* nonce */,
    0x8a97295a, 0x2247e5a0, 0xb3c4f126, 0xe9d4a713,
    0x80000000, 0x00000000, 0x00000000, 0x00000000,
    0x00000000, 0x00000000, 0x00000000, 0x00000200};

Wire
ror32(Design &d, Wire x, uint32_t n)
{
    (void)d;
    return x.shr(n) | x.shl(32 - n);
}

} // namespace

Netlist
makeBitcoin(const BitcoinConfig &cfg)
{
    if (cfg.engines == 0 || cfg.zeroBits == 0 || cfg.zeroBits > 32)
        fatal("makeBitcoin: bad configuration");
    Design d(strCat("bitcoin", cfg.engines));

    // Shared round-constant ROM.
    MemId krom = d.memory("k_rom", 32, 64);
    {
        std::vector<BitVec> img;
        for (uint32_t k : kSha256K)
            img.emplace_back(32, k);
        d.netlist().initMemory(krom, img);
    }

    std::vector<Wire> founds;
    for (uint32_t e = 0; e < cfg.engines; ++e) {
        std::string px = strCat("e", e, "_");
        // State registers: working vars, schedule window, midstate.
        std::array<RegId, 8> hv;  // a..h
        for (int i = 0; i < 8; ++i)
            hv[i] = d.reg(px + std::string(1, static_cast<char>('a' + i)),
                          32, kSha256Iv[i]);
        std::array<RegId, 16> w;
        for (int i = 0; i < 16; ++i)
            w[i] = d.reg(strCat(px, "w", i), 32,
                         i == 3 ? e : kHeader[i]);
        std::array<RegId, 8> mid;
        for (int i = 0; i < 8; ++i)
            mid[i] = d.reg(strCat(px, "h", i), 32,
                           kSha256Iv[i]);
        RegId round = d.reg(px + "round", 7, 0);
        RegId phase = d.reg(px + "phase", 1, 0);
        RegId nonce = d.reg(px + "nonce", 32, e);
        RegId found = d.reg(px + "found", 1, 0);
        RegId dig0 = d.reg(px + "dig0", 32, 0);

        std::array<Wire, 8> v;
        for (int i = 0; i < 8; ++i)
            v[i] = d.read(hv[i]);
        std::array<Wire, 16> wv;
        for (int i = 0; i < 16; ++i)
            wv[i] = d.read(w[i]);
        std::array<Wire, 8> mv;
        for (int i = 0; i < 8; ++i)
            mv[i] = d.read(mid[i]);
        Wire rv = d.read(round);
        Wire pv = d.read(phase);
        Wire nv = d.read(nonce);

        // One compression round.
        Wire kw = d.memRead(krom, rv.slice(0, 6));
        Wire s1 = ror32(d, v[4], 6) ^ ror32(d, v[4], 11) ^
            ror32(d, v[4], 25);
        Wire ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
        Wire temp1 = v[7] + s1 + ch + kw + wv[0];
        Wire s0 = ror32(d, v[0], 2) ^ ror32(d, v[0], 13) ^
            ror32(d, v[0], 22);
        Wire maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
        Wire temp2 = s0 + maj;

        // Schedule extension: W[t+16].
        Wire sg0 = ror32(d, wv[1], 7) ^ ror32(d, wv[1], 18) ^
            wv[1].shr(3);
        Wire sg1 = ror32(d, wv[14], 17) ^ ror32(d, wv[14], 19) ^
            wv[14].shr(10);
        Wire wnew = sg1 + wv[9] + sg0 + wv[0];

        Wire in_final = eqConst(d, rv, 64);
        Wire next_round = d.mux(in_final, d.lit(7, 0),
                                rv + d.lit(7, 1));
        d.next(round, next_round);

        // Digest at FINAL.
        std::array<Wire, 8> digest;
        for (int i = 0; i < 8; ++i)
            digest[i] = mv[i] + v[i];

        Wire second = pv;   // phase 1 = the second compression
        d.next(phase, d.mux(in_final, ~pv, pv));

        // found / dig0 latched when the second hash completes.
        Wire done2 = in_final & second;
        Wire target_ok =
            eqConst(d, digest[0].shr(32 - cfg.zeroBits), 0);
        d.next(found, d.mux(done2, target_ok, d.read(found)));
        d.next(dig0, d.mux(done2, digest[0], d.read(dig0)));
        Wire next_nonce = d.mux(done2, nv + d.lit(32, 1), nv);
        d.next(nonce, next_nonce);

        // Working variables.
        std::array<Wire, 8> iv_w;
        for (int i = 0; i < 8; ++i)
            iv_w[i] = d.lit(32, kSha256Iv[i]);
        std::array<Wire, 8> round_next = {
            temp1 + temp2, v[0], v[1], v[2],
            v[3] + temp1, v[4], v[5], v[6]};
        for (int i = 0; i < 8; ++i)
            d.next(hv[i], d.mux(in_final, iv_w[i], round_next[i]));

        // Midstate: at FINAL of phase 0 it becomes the first digest's
        // IV for... no: the second hash starts from the standard IV;
        // the first digest becomes the *message*. At FINAL of phase 1
        // everything restarts from the header.
        for (int i = 0; i < 8; ++i)
            d.next(mid[i], d.mux(in_final, iv_w[i], mv[i]));

        // Message schedule window.
        for (int i = 0; i < 16; ++i) {
            Wire shifted = i < 15 ? wv[i + 1] : wnew;
            Wire reload;
            if (i < 8) {
                // phase0 FINAL: digest becomes the 256-bit message.
                Wire hdr = i == 3 ? next_nonce
                                  : d.lit(32, kHeader[i]);
                reload = d.mux(second, hdr, digest[i]);
            } else if (i == 8) {
                reload = d.mux(second, d.lit(32, kHeader[i]),
                               d.lit(32, 0x80000000));
            } else if (i == 15) {
                reload = d.mux(second, d.lit(32, kHeader[i]),
                               d.lit(32, 256));
            } else {
                reload = d.lit(32, kHeader[i]);
            }
            d.next(w[i], d.mux(in_final, reload, shifted));
        }

        founds.push_back(d.read(found));
        if (e == 0) {
            d.output("dig0", d.read(dig0));
            d.output("nonce0", nv);
        }
    }
    Wire any = reduceTree(founds, [](Wire a, Wire b) { return a | b; });
    d.output("found", any);
    return d.finish();
}

} // namespace parendi::designs
