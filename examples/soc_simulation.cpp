/**
 * @file
 * The paper's headline use case: simulate a multicore mesh SoC
 * (srN — an N x N NoC of processor cores, paper §6) on the
 * thousand-tile BSP machine, then read traffic statistics and
 * per-core performance counters out of the simulated design.
 *
 * Run: ./soc_simulation [N] [cycles]      (defaults: 3, 2000)
 */

#include <cstdio>
#include <cstdlib>

#include "core/compiler.hh"
#include "designs/designs.hh"
#include "util/strcat.hh"

using namespace parendi;

int
main(int argc, char **argv)
{
    uint32_t n = argc > 1 ? static_cast<uint32_t>(atoi(argv[1])) : 3;
    uint64_t cycles =
        argc > 2 ? static_cast<uint64_t>(atoll(argv[2])) : 2000;

    designs::MeshConfig cfg;
    cfg.n = n;
    cfg.core = designs::MeshCore::Small;
    cfg.injectPeriod = 6;

    core::CompilerOptions opt;
    opt.chips = 1;
    opt.tilesPerChip = 1472;
    auto sim = core::compile(designs::makeMesh(cfg), opt);

    std::printf("sr%u: %zu DDG nodes, %zu fibers on %u tiles; "
                "modeled rate %.1f kHz\n",
                n, sim->report().metrics.nodes, sim->report().fibers,
                sim->machine().tilesUsed(), sim->rateKHz());

    sim->step(cycles);

    uint64_t tx = sim->machine().peek("tx_total").toUint64();
    uint64_t rx = sim->machine().peek("rx_total").toUint64();
    std::printf("after %llu cycles: %llu flits injected, %llu "
                "delivered (%.1f%% in flight)\n",
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(tx),
                static_cast<unsigned long long>(rx),
                100.0 * static_cast<double>(tx - rx) /
                    static_cast<double>(tx));

    // Per-node statistics straight out of the simulated registers.
    std::printf("\nper-node rx counts:\n");
    for (uint32_t y = 0; y < n; ++y) {
        for (uint32_t x = 0; x < n; ++x) {
            std::string nm = strCat("n", x, "_", y, "_rx");
            std::printf("%8llu",
                        static_cast<unsigned long long>(
                            sim->machine().peekRegister(nm)
                                .toUint64()));
        }
        std::printf("\n");
    }

    // Core performance counters (the uncore corners have none).
    std::printf("\ncore instret / branch-prediction hit rate:\n");
    for (uint32_t y = 0; y < n; ++y) {
        for (uint32_t x = 0; x < n; ++x) {
            bool uncore = (x == 0 && y == 0) || (x == 1 && y == 0) ||
                (x == 0 && y == 1);
            if (uncore) {
                std::printf("  n%u_%u: (uncore)\n", x, y);
                continue;
            }
            std::string px = strCat("n", x, "_", y, "_c_");
            uint64_t instret = sim->machine()
                .peekRegister(px + "csr_instret").toUint64();
            uint64_t hits = sim->machine()
                .peekRegister(px + "bp_hits").toUint64();
            uint64_t miss = sim->machine()
                .peekRegister(px + "bp_miss").toUint64();
            std::printf("  n%u_%u: instret=%llu bp=%.0f%%\n", x, y,
                        static_cast<unsigned long long>(instret),
                        hits + miss
                            ? 100.0 * static_cast<double>(hits) /
                                static_cast<double>(hits + miss)
                            : 0.0);
        }
    }
    return 0;
}
