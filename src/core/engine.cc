#include "core/engine.hh"

#include <unistd.h>

#include <utility>

#include "core/compiler.hh"
#include "obs/costprofile.hh"
#include "rtl/cgen.hh"
#include "rtl/interp.hh"
#include "util/logging.hh"
#include "x86/parallel.hh"

namespace parendi::core {

bool
tryParseEngineKind(const std::string &name, EngineKind &kind)
{
    if (name == "interp")
        kind = EngineKind::Interp;
    else if (name == "ipu")
        kind = EngineKind::Ipu;
    else if (name == "par")
        kind = EngineKind::Par;
    else if (name == "cgen")
        kind = EngineKind::Cgen;
    else
        return false;
    return true;
}

EngineKind
parseEngineKind(const std::string &name)
{
    EngineKind kind;
    if (!tryParseEngineKind(name, kind))
        fatal("unknown engine '%s' (expected interp|ipu|par|cgen)",
              name.c_str());
    return kind;
}

namespace {

/** Bytes one replica of @p nl needs live per lane: every node's slot
 *  words plus every memory image. The gang multiplies this by R. */
uint64_t
estimateReplicaBytes(const rtl::Netlist &nl)
{
    uint64_t bytes = 0;
    for (rtl::NodeId n = 0; n < nl.numNodes(); ++n)
        bytes += uint64_t(rtl::wordsFor(nl.widthOf(n))) * 8;
    for (rtl::MemId m = 0; m < nl.numMemories(); ++m)
        bytes += nl.mem(m).sizeBytes();
    return bytes;
}

/** Last-level cache size, or a 32 MiB guess when sysconf can't say. */
uint64_t
llcBytes()
{
#ifdef _SC_LEVEL3_CACHE_SIZE
    long sz = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (sz > 0)
        return static_cast<uint64_t>(sz);
#endif
    return uint64_t{32} << 20;
}

/**
 * Gang throughput falls off a cliff once R replicas of the design no
 * longer fit the last-level cache (the documented R=16 knee in
 * BENCH_PR8.json): every slot access then streams from DRAM. Warn once
 * per process with the largest R that still fits.
 */
void
maybeWarnGangCacheCliff(const rtl::Netlist &nl, uint32_t replicas)
{
    static bool warned = false;
    if (warned || replicas <= 1)
        return;
    uint64_t per = estimateReplicaBytes(nl);
    uint64_t total = per * replicas;
    uint64_t llc = llcBytes();
    if (total <= llc)
        return;
    warned = true;
    uint64_t fit = per ? llc / per : replicas;
    if (fit < 1)
        fit = 1;
    warn("gang state for --replicas %u is ~%llu KiB, past the ~%llu "
         "MiB last-level cache — throughput drops off this cliff "
         "(see BENCH_PR8.json at R=16); consider --replicas %llu or "
         "fewer",
         replicas, static_cast<unsigned long long>(total >> 10),
         static_cast<unsigned long long>(llc >> 20),
         static_cast<unsigned long long>(fit));
}

} // namespace

std::unique_ptr<SimEngine>
makeEngine(rtl::Netlist nl, const EngineOptions &opt)
{
    if (opt.cgen && opt.kind != EngineKind::Par &&
        opt.kind != EngineKind::Cgen)
        warn("native kernels (--cgen) only apply to the par and cgen "
             "engines; ignoring");
    const uint32_t replicas = opt.replicas ? opt.replicas : 1;
    maybeWarnGangCacheCliff(nl, replicas);
    // The sharded engines (par, ipu) take one execution config.
    rtl::ParConfig pcfg;
    pcfg.batch = opt.batch;
    pcfg.pool = opt.pool;
    pcfg.replicas = replicas;
    std::unique_ptr<SimEngine> engine;
    switch (opt.kind) {
      case EngineKind::Interp:
        engine = std::make_unique<rtl::Interpreter>(std::move(nl),
                                                    opt.lower, replicas);
        break;
      case EngineKind::Cgen: {
        rtl::CgenOptions ccfg;
        ccfg.store = opt.artifacts;
        ccfg.lanes = replicas;
        engine = std::make_unique<rtl::CgenInterpreter>(std::move(nl),
                                                        opt.lower, ccfg);
        break;
      }
      case EngineKind::Par: {
        obs::CostProfile measured;
        if (!opt.costProfileIn.empty() &&
            measured.load(opt.costProfileIn) && !measured.empty()) {
            inform("par: partitioning on %zu measured fiber costs "
                   "from %s", measured.size(),
                   opt.costProfileIn.c_str());
            pcfg.costIn = &measured;
        }
        auto par = std::make_unique<rtl::ParallelInterpreter>(
            std::move(nl), opt.threads, opt.lower, pcfg);
        if (opt.cgen) {
            rtl::CgenOptions ccfg;
            ccfg.store = opt.artifacts;
            par->enableNativeKernels(ccfg);
        }
        engine = std::move(par);
        break;
      }
      case EngineKind::Ipu: {
        // Like the other engines, ipu runs the netlist as given:
        // optimizing here could drop ports (a dead input) that the
        // caller pokes.
        CompilerOptions copt;
        copt.optimize = false;
        copt.lower = opt.lower;
        copt.threads = opt.threads;
        copt.exec = pcfg;
        engine = compile(std::move(nl), copt)->releaseMachine();
        break;
      }
    }
    if (!engine)
        panic("unhandled engine kind");
    // Activity-guarded eval (default on; --activity 0 is the
    // always-eval A/B baseline). A program whose activity plan could
    // not be built returns false and keeps running always-eval.
    if (opt.activity)
        engine->setActivity(true);
    if (opt.profile)
        engine->enableProfiling(opt.profileOpt);
    return engine;
}

} // namespace parendi::core
