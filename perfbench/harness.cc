/**
 * @file
 * perfbench: the repository benchmark. Runs one named workload from a
 * design name to N simulated cycles through the simulator's public
 * layer calls — designs::make*, rtl::optimize, the ParallelInterpreter
 * and CgenInterpreter constructors, enableNativeKernels,
 * SimEngine::step, core::saveCheckpoint / restoreCheckpoint and
 * serve::Client — times each call with the benchmark's own spans, and
 * checks the simulated state against the reference interpreter.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir D
 *   perfbench --warm --dir D      compile the warm workloads' kernels
 *   perfbench --pin               print the reference checksums
 *   perfbench --self-test --dir D
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones (profiler attached, spans written under D/traces). The last
 * stdout line is one JSON object: correct, attempted, failed, metrics.
 * Usually driven by run.py, which builds this binary first.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/snapshot.hh"
#include "core/session.hh"
#include "designs/designs.hh"
#include "fiber/fiber.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "rtl/cgen.hh"
#include "rtl/interp.hh"
#include "rtl/opt.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "spans.hh"
#include "util/logging.hh"
#include "x86/parallel.hh"

using namespace parendi;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

enum class Kind { Par, Cgen, Serve };

struct Workload
{
    const char *name;
    const char *design;
    Kind kind;
    /** Par: engine threads. Serve: shared pool width. */
    uint32_t threads;
    /** Serve: closed-loop clients (one session each). */
    uint32_t clients;
    /** Empty the artifact cache before every set-up (else it must be
     *  warm: a compile during a timed set-up is a failure). */
    bool cold;
    /** The fixed cycle budget wall_s covers (serve: per session); for
     *  in-process workloads also the cycles per checked repetition. */
    uint64_t budget;
    /** Cycles per SimEngine::step call (in-process workloads). */
    uint64_t window;
    /** Reference-interpreter ckpt::archStateFnv after `budget` cycles
     *  (in-process workloads; serve checks against a live reference). */
    uint64_t pin;
    /** Output peeked after every serve step (serve workloads). */
    const char *probe;
    /** What the seed varies on this workload. */
    const char *seedUse;
};

// Set-ups per run: in-process workloads set up once per checked budget,
// at least kMinSetups times; serve creates a session at least
// kMinSetups times, more (up to kMaxSetups) while the creates add up
// to less than kSetupSeconds.
constexpr uint32_t kMinSetups = 3;
constexpr uint32_t kMaxSetups = 100;
constexpr double kSetupSeconds = 2.0;
constexpr size_t kQuietSegments = 20;    ///< see quietSegments()
constexpr uint32_t kCkptPerRep = 4;      ///< save/restore pairs per rep
constexpr uint64_t kServeStepMin = 200;  ///< serve step size range
constexpr uint64_t kServeStepMax = 400;
constexpr uint64_t kServeCkptEvery = 16; ///< ~1 in K requests checkpoints

const Workload kWorkloads[] = {
    {"sr8-par4", "sr8", Kind::Par, 4, 0, false, 24000, 25,
     0xac8bf8a222afd35aull, nullptr,
     "none: the sr8 mesh generator has no seedable stimulus"},
    {"gated-cgen1", "gated", Kind::Cgen, 1, 0, false, 1000000, 1000,
     0x34567c915dbfe60eull, nullptr,
     "none: the gated generator has no seedable stimulus"},
    {"bitcoin-serve2", "bitcoin", Kind::Serve, 2, 2, false, 100000, 0, 0,
     "nonce0", "serve step sizes and checkpoint points"},
};

/**
 * Runnable by name but not part of BENCHMARK.json: sr2 par-cgen@4 from
 * an empty cache before every set-up, the cold-compile case. Its
 * 4-worker stepping of a small design spread 0.12-0.38 (IQR/median
 * over 10 runs) on a shared 4-vCPU host, wider than the bound.
 */
const Workload kExtraWorkloads[] = {
    {"sr2-cold", "sr2", Kind::Par, 4, 0, true, 100000, 200,
     0x585a4918c8dc90c8ull, nullptr,
     "none: the sr2 mesh generator has no seedable stimulus"},
};

/** Tiny configurations for --self-test. */
const Workload kSelfTest[] = {
    {"pico-cold", "pico", Kind::Par, 2, 0, true, 2000, 100,
     0xce93b491fbf0cbb0ull, nullptr, "none"},
    {"pico-warm", "pico", Kind::Par, 2, 0, false, 2000, 100,
     0xce93b491fbf0cbb0ull, nullptr, "none"},
    {"pico-serve1", "pico", Kind::Serve, 1, 1, false, 4000, 0, 0, "pc",
     "serve step sizes and checkpoint points"},
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Traced runs: spans outside their parent (see misnestedSpans). */
    size_t misnested = 0;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

struct RunOptions
{
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string dir = ".";
};

// --------------------------------------------------------------------
// Small helpers

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p p in [0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1) +
                                   0.5);
    return v[std::min(i, v.size() - 1)];
}

using Range = std::pair<size_t, size_t>;

/**
 * The quieter half of a run. Other tenants of a shared host slow every
 * step for bursts of 0.5-2 s (on a 4-vCPU VM, gated-cgen1's 1000-cycle
 * steps switch between 0.43 and 0.85 ms), so a plain median moves with
 * the share of the run a burst happened to cover. The samples, in the
 * order they were taken, are cut into up to kQuietSegments equal runs;
 * the half with the lowest median is kept. Returns their index ranges.
 */
std::vector<Range>
quietSegments(const std::vector<double> &inOrder)
{
    size_t n = inOrder.size();
    size_t segs = std::clamp<size_t>(n, 1, kQuietSegments);
    std::vector<std::pair<double, Range>> byMedian;
    for (size_t k = 0; k < segs && n; ++k) {
        size_t b = k * n / segs, e = (k + 1) * n / segs;
        byMedian.push_back(
            {median({inOrder.begin() + b, inOrder.begin() + e}), {b, e}});
    }
    std::sort(byMedian.begin(), byMedian.end());
    byMedian.resize((byMedian.size() + 1) / 2);
    std::vector<Range> kept;
    for (const auto &m : byMedian)
        kept.push_back(m.second);
    return kept;
}

/** The samples of quietSegments(). */
std::vector<double>
quietHalf(const std::vector<double> &inOrder)
{
    std::vector<double> kept;
    for (auto [b, e] : quietSegments(inOrder))
        kept.insert(kept.end(), inOrder.begin() + b, inOrder.begin() + e);
    return kept;
}

bool
moreSetups(const std::vector<double> &sec)
{
    double sum = 0;
    for (double s : sec)
        sum += s;
    return sec.size() < kMinSetups ||
        (sec.size() < kMaxSetups && sum < kSetupSeconds);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
firstLineOf(const std::string &cmd)
{
    std::string out;
    if (FILE *p = popen(cmd.c_str(), "r")) {
        char buf[512];
        if (std::fgets(buf, sizeof buf, p))
            out = buf;
        pclose(p);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o;
}

std::string
readFile(const fs::path &p)
{
    std::ifstream f(p);
    std::string s;
    std::getline(f, s);
    return s;
}

/** HEAD of the checkout's .git directory, read without leaving it. */
std::string
gitSha()
{
    fs::path git = ".git";
    std::string head = readFile(git / "HEAD");
    if (head.empty())
        return "unknown (not a git checkout)";
    if (head.rfind("ref: ", 0) != 0)
        return head;
    std::string ref = head.substr(5);
    std::string sha = readFile(git / ref);
    if (!sha.empty())
        return sha;
    std::ifstream packed(git / "packed-refs");
    for (std::string line; std::getline(packed, line);)
        if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0)
            return line.substr(0, 40);
    return "unknown";
}

/** Host and build facts, stamped into every result. */
void
printHostFacts()
{
    const char *cxx = std::getenv("PARENDI_CXX");
    if (!cxx || !*cxx)
        cxx = std::getenv("CXX");
    std::string cxxCmd = cxx && *cxx ? cxx : "c++";
    long llc = -1;
#ifdef _SC_LEVEL3_CACHE_SIZE
    llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::printf("host: {\"nproc\": %u, \"llc_bytes\": %ld, \"cxx\": \"%s\", "
                "\"cxx_version\": \"%s\", \"build_type\": \"%s\", "
                "\"optimized\": %s, \"git_sha\": \"%s\"}\n",
                std::thread::hardware_concurrency(), llc,
                jsonEscape(cxxCmd).c_str(),
                jsonEscape(firstLineOf(cxxCmd + " --version 2>&1")).c_str(),
                PERFBENCH_BUILD_TYPE, optimized ? "true" : "false",
                jsonEscape(gitSha()).c_str());
    if (!optimized)
        std::printf("WARNING: perfbench was built without optimisation; "
                    "its timings are not comparable\n");
}

rtl::Netlist
makeDesign(const std::string &name)
{
    if (name == "pico")
        return designs::makePico(designs::defaultCoreConfig());
    if (name == "bitcoin")
        return designs::makeBitcoin({4, 16});
    if (name == "gated")
        return designs::makeGated(designs::GatedConfig{});
    if (name.rfind("sr", 0) == 0)
        return designs::makeSr(
            static_cast<uint32_t>(std::stoul(name.substr(2))));
    fatal("perfbench: unknown design %s", name.c_str());
}

/** Empty (or create) a directory the benchmark owns. */
void
resetDir(const fs::path &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
}

// --------------------------------------------------------------------
// The private artifact cache

/**
 * A directory cache in a directory the benchmark owns (same layout as
 * the simulator's default cache). Counts hits and misses, and records
 * a cgen.compile span around each compile, so a stray system-wide
 * cache can never pass for a compile-time win.
 */
class BenchCache final : public rtl::ArtifactCache
{
  public:
    BenchCache(SpanRecorder &rec, fs::path dir)
        : rec_(rec), dir_(std::move(dir))
    {
    }

    std::string
    acquire(uint64_t key,
            const std::function<bool(const std::string &)> &build) override
    {
        std::error_code ec;
        fs::create_directories(dir_, ec);
        std::string so = (dir_ / rtl::cgenObjectName(key)).string();
        if (fs::exists(so, ec)) {
            ++hits;
            return so;
        }
        ++misses;
        Scope s(rec_, "cgen.compile");
        return build(so) ? so : std::string();
    }

    const fs::path &dir() const { return dir_; }

    uint64_t hits = 0;
    uint64_t misses = 0;

  private:
    SpanRecorder &rec_;
    fs::path dir_;
};

fs::path
cacheDir(const RunOptions &opt, const Workload &w)
{
    return fs::path(opt.dir) / "cache" / w.name;
}

// --------------------------------------------------------------------
// In-process workloads

/** One set-up: design name -> steppable engine with native kernels
 *  and the default (on) activity guards. */
std::unique_ptr<core::SimEngine>
buildEngine(const Workload &w, SpanRecorder &rec, BenchCache &cache,
            bool *native)
{
    rtl::Netlist nl;
    {
        Scope s(rec, "designs.generate");
        nl = makeDesign(w.design);
    }
    {
        Scope s(rec, "opt.optimize");
        nl = rtl::optimize(nl);
    }
    rtl::CgenOptions copt;
    copt.store = &cache;
    std::unique_ptr<core::SimEngine> engine;
    if (w.kind == Kind::Cgen) {
        // The cgen engine lowers and attaches in one public call.
        Scope s(rec, "cgen.attach");
        auto cg = std::make_unique<rtl::CgenInterpreter>(
            std::move(nl), rtl::LowerOptions{}, copt);
        *native = cg->native();
        engine = std::move(cg);
    } else {
        if (rec.enabled()) {
            // Traced runs only: a standalone fiber extraction on the
            // same netlist (the constructor repeats it internally).
            Scope s(rec, "fiber.extract");
            fiber::FiberSet fibers(nl);
        }
        std::unique_ptr<rtl::ParallelInterpreter> par;
        {
            Scope s(rec, "par.construct");
            par = std::make_unique<rtl::ParallelInterpreter>(std::move(nl),
                                                             w.threads);
        }
        {
            Scope s(rec, "cgen.attach");
            *native = par->enableNativeKernels(copt) > 0;
        }
        engine = std::move(par);
    }
    engine->setActivity(true);
    return engine;
}

/** Per-layer metrics a set-up's spans give: median self time of each
 *  layer span (cgen.attach inclusive of its compile). */
void
addSetupLayerMetrics(Result &r, const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimes(spans);
    auto med = [&](const char *name, bool inclusive) {
        std::vector<double> v;
        for (size_t i = 0; i < spans.size(); ++i)
            if (spans[i].name == name)
                v.push_back(inclusive ? spans[i].t1 - spans[i].t0
                                      : self[i]);
        return median(v);
    };
    r.add("designs.generate_s", med("designs.generate", false), "s");
    r.add("opt.optimize_s", med("opt.optimize", false), "s");
    r.add("fiber.extract_s", med("fiber.extract", false), "s");
    r.add("par.construct_s", med("par.construct", false), "s");
    r.add("cgen.attach_s", med("cgen.attach", true), "s");
    r.add("cgen.compile_s", med("cgen.compile", false), "s");
}

/** shard / bsp / activity metrics from an attached profiler. */
void
addProfilerMetrics(Result &r, const core::SimEngine &engine)
{
    obs::ProfileReport rep;
    if (const obs::SuperstepProfiler *p = engine.profiler())
        rep = obs::buildReport(*p);
    double cyc = static_cast<double>(rep.cyclesSampled);
    auto us = [&](double sec) { return cyc ? sec * 1e6 / cyc : 0.0; };
    r.add("shard.commit_us", us(rep.commitSec), "us");
    r.add("shard.latch_us", us(rep.latchSec), "us");
    r.add("shard.exchange_us", us(rep.exchangeSec), "us");
    r.add("shard.eval_us", us(rep.evalSec), "us");
    r.add("shard.publish_us", us(rep.publishSec), "us");
    r.add("bsp.t_comp_us", us(rep.tCompSec), "us");
    r.add("bsp.t_comm_us", us(rep.tCommSec), "us");
    r.add("bsp.t_sync_us", us(rep.tSyncSec), "us");
    double work = 0, wait = 0;
    for (double s : rep.workerWorkSec)
        work += s;
    for (double s : rep.workerBarrierSec)
        wait += s;
    r.add("bsp.barrier_wait_share",
          work + wait > 0 ? wait / (work + wait) : 0, "share");
    double mx = 0, sum = 0;
    for (double ns : rep.shardEvalNs) {
        mx = std::max(mx, ns);
        sum += ns;
    }
    double mean = rep.shardEvalNs.empty()
        ? 0
        : sum / static_cast<double>(rep.shardEvalNs.size());
    r.add("shard.eval_imbalance", mean > 0 ? mx / mean : 0, "ratio");
    uint64_t cycles = 0, words = 0, skipped = 0, total = 0;
    for (const auto &[name, v] : rep.counters) {
        if (name == obs::kCyclesSimulated)
            cycles = v;
        else if (name == obs::kExchangeWordsMoved)
            words = v;
        else if (name == obs::kEvalGroupsSkipped)
            skipped = v;
        else if (name == obs::kEvalGroupsTotal)
            total = v;
    }
    r.add("shard.exchange_words_per_cycle",
          cycles ? static_cast<double>(words) / static_cast<double>(cycles)
                 : 0,
          "words");
    r.add("activity.skip_ratio",
          total ? static_cast<double>(skipped) / static_cast<double>(total)
                : 0,
          "share");
    r.add("activity.eval_groups_total", static_cast<double>(total),
          "count");
}

/**
 * The per-layer metrics every traced run shares — set-up spans, cache
 * outcome, profiler — and the two Chrome traces: the spans, and the
 * profiler's supersteps next to them.
 */
void
addTracedLayers(Result &r, const RunOptions &opt, const Workload &w,
                const SpanRecorder &rec, const core::SimEngine &engine,
                uint64_t hits, uint64_t misses)
{
    std::vector<Span> spans = rec.spans();
    r.misnested = misnestedSpans(spans);
    addSetupLayerMetrics(r, spans);
    r.add("cgen.cache_hit",
          hits + misses ? static_cast<double>(hits) /
                  static_cast<double>(hits + misses)
                        : 0,
          "share");
    addProfilerMetrics(r, engine);

    fs::path traces = fs::path(opt.dir) / "traces";
    std::error_code ec;
    fs::create_directories(traces, ec);
    std::string stem = (traces / (std::string(w.name) + "-seed" +
                                  std::to_string(opt.seed)))
                           .string();
    writeSpansChromeTrace(spans, stem + ".spans.json");
    if (const obs::SuperstepProfiler *p = engine.profiler()) {
        std::ofstream f(stem + ".profile.json");
        obs::writeChromeTrace(*p, f);
    }
    std::printf("traces: %s.spans.json, %s.profile.json (%zu spans, %zu "
                "misnested)\n",
                stem.c_str(), stem.c_str(), spans.size(), r.misnested);
}

/**
 * Reset, step the fixed budget in `window`-cycle step calls, check the
 * state against the pinned reference checksum, then time checkpoint
 * save/restore pairs (each restore checked against the pin too).
 */
void
runRep(core::SimEngine &e, const Workload &w, Result &r,
       std::vector<double> &windowSec, std::vector<double> &saveMs,
       std::vector<double> &restoreMs, std::vector<double> &snapBytes)
{
    e.reset();
    for (uint64_t c = 0; c < w.budget; c += w.window) {
        Clock::time_point t0 = Clock::now();
        e.step(w.window);
        windowSec.push_back(since(t0));
    }
    uint64_t fnv = ckpt::archStateFnv(e);
    ++r.attempted;
    if (fnv != w.pin && ++r.failed == 1)
        std::printf("MISMATCH %s: archStateFnv after %llu cycles is "
                    "0x%016llx, pinned 0x%016llx\n",
                    w.name, static_cast<unsigned long long>(w.budget),
                    static_cast<unsigned long long>(fnv),
                    static_cast<unsigned long long>(w.pin));
    for (uint32_t k = 0; k < kCkptPerRep; ++k) {
        ++r.attempted;
        try {
            std::ostringstream os;
            Clock::time_point t0 = Clock::now();
            core::saveCheckpoint(e, os);
            saveMs.push_back(since(t0) * 1e3);
            std::string blob = os.str();
            snapBytes.push_back(static_cast<double>(blob.size()));
            std::istringstream is(blob);
            t0 = Clock::now();
            core::restoreCheckpoint(e, is);
            restoreMs.push_back(since(t0) * 1e3);
            if (ckpt::archStateFnv(e) != w.pin)
                ++r.failed;
        } catch (const FatalError &err) {
            std::printf("checkpoint failed: %s\n", err.what());
            ++r.failed;
        }
    }
}

Result
runEngineWorkload(const Workload &w, const RunOptions &opt)
{
    Result r;
    SpanRecorder rec(opt.trace);
    BenchCache cache(rec, cacheDir(opt, w));

    // Each iteration is a fresh set-up, then one checked budget on it.
    // Iterating (rather than setting up a few times first) spreads the
    // set-up samples over the whole run, so the quiet half can be
    // picked from them too. Untraced for the whole run (--trace 0), or
    // for its first half, followed by profiled budgets on the last
    // engine (--trace 1).
    std::vector<double> setupSec, windowSec, tracedWindowSec, saveMs,
        restoreMs, snapBytes;
    std::unique_ptr<core::SimEngine> engine;
    Clock::time_point t0 = Clock::now();
    double untracedFor = opt.trace ? opt.seconds / 2 : opt.seconds;
    for (uint32_t k = 0; k < kMinSetups || since(t0) < untracedFor; ++k) {
        engine.reset();
        if (w.cold)
            resetDir(cache.dir());
        uint64_t hits = cache.hits, misses = cache.misses;
        bool native = false;
        Scope s(rec, "setup");
        engine = buildEngine(w, rec, cache, &native);
        setupSec.push_back(s.stop());
        ++r.attempted;
        bool hit = cache.hits > hits, miss = cache.misses > misses;
        if (!native || (w.cold ? hit || !miss : miss || !hit)) {
            ++r.failed;
            std::printf("CACHE %s: set-up %u native=%d hit=%d miss=%d "
                        "(expected a %s cache)\n",
                        w.name, k, native, hit, miss,
                        w.cold ? "cold" : "warm");
        }
        runRep(*engine, w, r, windowSec, saveMs, restoreMs, snapBytes);
    }
    // Slow set-ups (the cold workload's compiles) leave little stepping
    // in that time; step on until the run has measured as much stepping.
    auto stepped = [&] {
        double sum = 0;
        for (double s : windowSec)
            sum += s;
        return sum;
    };
    while (stepped() < untracedFor)
        runRep(*engine, w, r, windowSec, saveMs, restoreMs, snapBytes);
    if (opt.trace) {
        obs::ProfileOptions popt;
        engine->enableProfiling(popt);
        std::vector<double> scratch;
        Clock::time_point t1 = Clock::now();
        do {
            runRep(*engine, w, r, tracedWindowSec, scratch, scratch,
                   scratch);
        } while (since(t1) < opt.seconds - untracedFor);
    }

    double stepSec = median(quietHalf(windowSec));
    double khz = static_cast<double>(w.window) / stepSec / 1e3;
    if (!opt.trace) {
        double setup = median(quietHalf(setupSec));
        r.add("setup_s", setup, "s");
        r.add("wall_s", setup + static_cast<double>(w.budget) / khz / 1e3,
              "s");
        r.add("sim_khz", khz, "kHz");
        r.add("step_p50_ms", stepSec * 1e3, "ms");
        r.add("ckpt_save_ms", median(quietHalf(saveMs)), "ms");
        r.add("ckpt_restore_ms", median(quietHalf(restoreMs)), "ms");
        r.add("peak_rss_mb", peakRssMb(), "MB");
        return r;
    }

    addTracedLayers(r, opt, w, rec, *engine, cache.hits, cache.misses);
    r.add("ckpt.snapshot_bytes", median(snapBytes), "bytes");
    r.add("serve.create_ms", 0, "ms");
    r.add("serve.fairness", 0, "ratio");
    r.add("step.p99_ms", percentile(windowSec, 0.99) * 1e3, "ms");
    r.add("trace.overhead", stepSec / median(quietHalf(tracedWindowSec)),
          "ratio");
    return r;
}

// --------------------------------------------------------------------
// The serve workload

struct Peek
{
    uint64_t cycle;
    std::string output;
    rtl::BitVec value;
};

/** A serve step size drawn from the seeded range. */
uint64_t
serveStepSize(std::mt19937_64 &rng)
{
    return kServeStepMin + rng() % (kServeStepMax - kServeStepMin + 1);
}

/** One completed serve step request. */
struct StepSample
{
    double t;           ///< completion, seconds since the phase began
    double ms;          ///< round trip
    uint64_t cycles;    ///< cycles the request stepped
};

struct ClientLog
{
    uint64_t session = 0;
    uint64_t cycles = 0;        ///< session cycle count after last step
    std::vector<StepSample> steps;  ///< the current phase's steps
    std::vector<double> saveMs, restoreMs, snapBytes;
    std::vector<Peek> peeks;
    uint64_t ops = 0, errors = 0;
};

/** One closed-loop client for one phase: step (seeded size) -> peek,
 *  and on seeded requests checkpoint -> restore, until @p until. */
void
clientPhase(serve::Client &c, const Workload &w, std::mt19937_64 &rng,
            SpanRecorder &rec, Clock::time_point phase0,
            Clock::time_point until, ClientLog &log)
{
    const uint64_t id = log.session;
    log.steps.clear();
    while (Clock::now() < until) {
        uint64_t n = serveStepSize(rng);
        bool ckpt = rng() % kServeCkptEvery == 0;
        uint64_t after = 0;
        ++log.ops;
        {
            Scope s(rec, "serve.step", id);
            if (!c.step(id, n, &after)) {
                ++log.errors;
                std::printf("serve step failed: %s\n",
                            c.lastError().c_str());
                return;
            }
            double ms = s.stop() * 1e3;
            log.steps.push_back({since(phase0), ms, after - log.cycles});
        }
        log.cycles = after;
        rtl::BitVec v;
        ++log.ops;
        {
            Scope s(rec, "serve.peek", id);
            if (!c.peek(id, w.probe, &v)) {
                ++log.errors;
                return;
            }
        }
        log.peeks.push_back({after, w.probe, v});
        if (!ckpt)
            continue;
        std::string blob;
        log.ops += 2;
        {
            Scope s(rec, "serve.checkpoint", id);
            if (!c.checkpoint(id, &blob)) {
                log.errors += 2;
                return;
            }
            log.saveMs.push_back(s.stop() * 1e3);
        }
        log.snapBytes.push_back(static_cast<double>(blob.size()));
        Scope s(rec, "serve.restore", id);
        if (!c.restore(id, blob)) {
            ++log.errors;
            return;
        }
        log.restoreMs.push_back(s.stop() * 1e3);
    }
}

struct PhaseStats
{
    double khz = 0;     ///< aggregate cycles/s over the quiet half, kHz
    double p50Ms = 0;   ///< step round trip over the quiet half
    double p99Ms = 0;   ///< step round trip over the whole phase
};

/** Run every client's phase concurrently and aggregate its steps. */
PhaseStats
servePhase(std::vector<std::unique_ptr<serve::Client>> &clients,
           std::vector<ClientLog> &logs,
           std::vector<std::mt19937_64> &rngs, const Workload &w,
           SpanRecorder &rec, double seconds)
{
    Clock::time_point t0 = Clock::now();
    Clock::time_point until =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (size_t i = 0; i < clients.size(); ++i)
        threads.emplace_back([&, i] {
            clientPhase(*clients[i], w, rngs[i], rec, t0, until, logs[i]);
        });
    for (auto &t : threads)
        t.join();

    // Every session's steps in completion order; each quiet segment
    // contributes its cycles over the time since the previous segment.
    std::vector<StepSample> steps;
    for (const ClientLog &l : logs)
        steps.insert(steps.end(), l.steps.begin(), l.steps.end());
    std::sort(steps.begin(), steps.end(),
              [](const StepSample &a, const StepSample &b) {
                  return a.t < b.t;
              });
    std::vector<double> ms;
    for (const StepSample &s : steps)
        ms.push_back(s.ms);
    PhaseStats st;
    st.p99Ms = percentile(ms, 0.99);
    std::vector<double> quietMs;
    double cycles = 0, sec = 0;
    for (auto [b, e] : quietSegments(ms)) {
        for (size_t i = b; i < e; ++i) {
            cycles += static_cast<double>(steps[i].cycles);
            quietMs.push_back(steps[i].ms);
        }
        sec += steps[e - 1].t - (b ? steps[b - 1].t : 0.0);
    }
    st.khz = sec > 0 ? cycles / sec / 1e3 : 0;
    st.p50Ms = median(quietMs);
    return st;
}

/** Replay every observed peek on an in-process reference interpreter;
 *  returns the number of mismatches. */
uint64_t
checkServeReference(const Workload &w, std::vector<Peek> peeks)
{
    std::stable_sort(peeks.begin(), peeks.end(),
                     [](const Peek &a, const Peek &b) {
                         return a.cycle < b.cycle;
                     });
    rtl::Interpreter ref(rtl::optimize(makeDesign(w.design)));
    uint64_t bad = 0;
    for (const Peek &p : peeks) {
        if (p.cycle > ref.cycles())
            ref.step(p.cycle - ref.cycles());
        if (!(ref.peek(p.output) == p.value)) {
            if (!bad)
                std::printf("MISMATCH %s: %s at cycle %llu is %s, "
                            "reference %s\n",
                            w.name, p.output.c_str(),
                            static_cast<unsigned long long>(p.cycle),
                            p.value.toHex().c_str(),
                            ref.peek(p.output).toHex().c_str());
            ++bad;
        }
    }
    return bad;
}

uint64_t
statValue(serve::Client &c, const char *name)
{
    std::vector<std::pair<std::string, uint64_t>> stats;
    if (c.stats(&stats))
        for (const auto &[n, v] : stats)
            if (n == name)
                return v;
    return 0;
}

Result
runServeWorkload(const Workload &w, const RunOptions &opt)
{
    Result r;
    SpanRecorder rec(opt.trace);
    fs::path dir = cacheDir(opt, w);

    serve::ManagerOptions mopt;
    mopt.maxSessions = w.clients + 4;
    mopt.poolThreads = w.threads;
    mopt.store.dir = dir.string();
    mopt.resolveDesign = [&rec](const std::string &spec) {
        rtl::Netlist nl;
        {
            Scope s(rec, "designs.generate");
            nl = makeDesign(spec);
        }
        Scope s(rec, "opt.optimize");
        return rtl::optimize(nl);
    };
    serve::SessionManager manager(std::move(mopt));
    serve::Server server(manager, 0);
    server.start();

    auto connect = [&]() {
        auto c = std::make_unique<serve::Client>();
        if (!c->connect(server.port()))
            fatal("perfbench: cannot connect: %s", c->lastError().c_str());
        return c;
    };
    auto create = [&](serve::Client &c, double *ms) -> uint64_t {
        bool native = false;
        Scope s(rec, "serve.create");
        uint64_t id = c.createSession(w.design, "par", w.threads, true, 0,
                                      1, &native);
        *ms = s.stop() * 1e3;
        ++r.attempted;
        if (!id || !native) {
            ++r.failed;
            std::printf("serve create failed (native=%d): %s\n", native,
                        c.lastError().c_str());
        }
        return id;
    };

    // Set-up: the first session create, repeated.
    std::vector<double> setupSec, createMs;
    {
        auto c = connect();
        while (moreSetups(setupSec)) {
            double ms = 0;
            uint64_t id = create(*c, &ms);
            setupSec.push_back(ms / 1e3);
            createMs.push_back(ms);
            if (id)
                c->destroySession(id);
        }
    }

    std::vector<std::unique_ptr<serve::Client>> clients;
    std::vector<ClientLog> logs(w.clients);
    std::vector<std::mt19937_64> rngs;
    for (uint32_t i = 0; i < w.clients; ++i) {
        clients.push_back(connect());
        rngs.emplace_back(opt.seed * 0x9E3779B97F4A7C15ull + i + 1);
        double ms = 0;
        logs[i].session = create(*clients[i], &ms);
        createMs.push_back(ms);
        if (!logs[i].session)
            return r;
    }

    // Untraced phase (the whole run, or its first half when tracing),
    // then a traced phase recording a span per request.
    SpanRecorder off(false);
    double untracedFor = opt.trace ? opt.seconds / 2 : opt.seconds;
    PhaseStats untraced =
        servePhase(clients, logs, rngs, w, off, untracedFor);
    PhaseStats traced;
    if (opt.trace)
        traced = servePhase(clients, logs, rngs, w, rec,
                            opt.seconds - untracedFor);

    // Final peeks of every output, then the reference check.
    std::vector<Peek> peeks;
    rtl::Netlist design = rtl::optimize(makeDesign(w.design));
    uint64_t lo = ~0ull, hi = 0;
    std::vector<double> saveMs, restoreMs, snapBytes;
    for (size_t i = 0; i < logs.size(); ++i) {
        ClientLog &l = logs[i];
        for (rtl::PortId p = 0; p < design.numOutputs(); ++p) {
            const std::string &name = design.output(p).name;
            rtl::BitVec v;
            ++l.ops;
            if (clients[i]->peek(l.session, name, &v))
                l.peeks.push_back({l.cycles, name, v});
            else
                ++l.errors;
        }
        peeks.insert(peeks.end(), l.peeks.begin(), l.peeks.end());
        saveMs.insert(saveMs.end(), l.saveMs.begin(), l.saveMs.end());
        restoreMs.insert(restoreMs.end(), l.restoreMs.begin(),
                         l.restoreMs.end());
        snapBytes.insert(snapBytes.end(), l.snapBytes.begin(),
                         l.snapBytes.end());
        lo = std::min(lo, l.cycles);
        hi = std::max(hi, l.cycles);
        r.attempted += l.ops;
        r.failed += l.errors;
    }
    r.failed += checkServeReference(w, peeks);

    // A warm workload must never compile.
    uint64_t hits = 0, misses = 0;
    {
        auto c = connect();
        hits = statValue(*c, serve::kArtifactHits);
        misses = statValue(*c, serve::kArtifactMisses);
        for (size_t i = 0; i < logs.size(); ++i)
            clients[i]->destroySession(logs[i].session);
    }
    ++r.attempted;
    if (misses > 0 || hits == 0) {
        ++r.failed;
        std::printf("CACHE %s: %llu hits, %llu misses (expected warm)\n",
                    w.name, static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(misses));
    }
    clients.clear();
    server.stop();

    if (!opt.trace) {
        double setup = median(quietHalf(setupSec));
        double cycles = static_cast<double>(w.budget * w.clients);
        r.add("setup_s", setup, "s");
        r.add("wall_s", setup + cycles / untraced.khz / 1e3, "s");
        r.add("sim_khz", untraced.khz, "kHz");
        r.add("step_p50_ms", untraced.p50Ms, "ms");
        r.add("ckpt_save_ms", median(quietHalf(saveMs)), "ms");
        r.add("ckpt_restore_ms", median(quietHalf(restoreMs)), "ms");
        r.add("peak_rss_mb", peakRssMb(), "MB");
        return r;
    }

    // The profiler is not reachable through serve::Client, so the
    // shard/bsp numbers come from an in-process engine of the same
    // session configuration (par + cgen, pool width, same cache),
    // stepped with the same seeded step sizes.
    BenchCache cache(rec, dir);
    bool native = false;
    std::unique_ptr<core::SimEngine> proxy;
    {
        Scope s(rec, "setup");
        proxy = buildEngine(w, rec, cache, &native);
    }
    proxy->enableProfiling(obs::ProfileOptions{});
    std::mt19937_64 rng(opt.seed);
    Clock::time_point p0 = Clock::now();
    while (since(p0) < 1.0)
        proxy->step(serveStepSize(rng));

    addTracedLayers(r, opt, w, rec, *proxy, hits, misses);
    r.add("ckpt.snapshot_bytes", median(snapBytes), "bytes");
    r.add("serve.create_ms", median(createMs), "ms");
    r.add("serve.fairness",
          lo ? static_cast<double>(hi) / static_cast<double>(lo) : 0,
          "ratio");
    r.add("step.p99_ms", untraced.p99Ms, "ms");
    r.add("trace.overhead",
          untraced.khz > 0 ? traced.khz / untraced.khz : 0, "ratio");
    return r;
}

Result
runWorkload(const Workload &w, const RunOptions &opt)
{
    std::printf("workload: %s (design %s), seed %llu: seed varies %s\n",
                w.name, w.design,
                static_cast<unsigned long long>(opt.seed), w.seedUse);
    try {
        return w.kind == Kind::Serve ? runServeWorkload(w, opt)
                                     : runEngineWorkload(w, opt);
    } catch (const FatalError &err) {
        std::printf("workload %s failed: %s\n", w.name, err.what());
        Result r;
        r.attempted = r.failed = 1;
        return r;
    }
}

void
printResult(const Result &r)
{
    for (const Metric &m : r.metrics)
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    double failShare = r.attempted ? static_cast<double>(r.failed) /
            static_cast<double>(r.attempted)
                                   : 1;
    std::printf("  %-34s %14.6g share (%llu of %llu operations)\n",
                "fail_share", failShare,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    std::string js = "{\"correct\": ";
    js += r.failed == 0 && r.attempted > 0 ? "true" : "false";
    js += ", \"attempted\": " + std::to_string(r.attempted);
    js += ", \"failed\": " + std::to_string(r.failed);
    js += ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", r.metrics[i].value);
        js += (i ? ", \"" : "\"") + r.metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" +
            r.metrics[i].unit + "\"}";
    }
    js += "}}";
    std::printf("%s\n", js.c_str());
    std::fflush(stdout);
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    for (const Workload &w : kExtraWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

// --------------------------------------------------------------------
// --warm, --pin, --self-test

/** Compile each warm workload's kernels into its private cache. */
template <size_t N>
int
warmCaches(const RunOptions &opt, const Workload (&workloads)[N])
{
    for (const Workload &w : workloads) {
        if (w.cold)
            continue;
        SpanRecorder rec(false);
        BenchCache cache(rec, cacheDir(opt, w));
        bool native = false;
        Clock::time_point t0 = Clock::now();
        buildEngine(w, rec, cache, &native);
        std::printf("warm %s: %s in %.1f s (%llu compiled)\n", w.name,
                    native ? "native" : "NOT NATIVE", since(t0),
                    static_cast<unsigned long long>(cache.misses));
        if (!native)
            return 1;
    }
    return 0;
}

/** The reference interpreter's archStateFnv after each budget. */
int
printPins()
{
    auto pin = [](const Workload &w) {
        if (w.kind == Kind::Serve)
            return;
        Clock::time_point t0 = Clock::now();
        rtl::Interpreter ref(rtl::optimize(makeDesign(w.design)));
        ref.step(w.budget);
        std::printf("%-12s %-8s %9llu cycles  0x%016llxull  (%.1f s)\n",
                    w.name, w.design,
                    static_cast<unsigned long long>(w.budget),
                    static_cast<unsigned long long>(ckpt::archStateFnv(ref)),
                    since(t0));
    };
    for (const Workload &w : kWorkloads)
        pin(w);
    for (const Workload &w : kExtraWorkloads)
        pin(w);
    for (const Workload &w : kSelfTest)
        pin(w);
    return 0;
}

int
selfTest(RunOptions opt)
{
    opt.dir = (fs::path(opt.dir) / "selftest").string();
    resetDir(opt.dir);
    opt.seconds = 0.3;
    int failures = 0;
    auto check = [&](bool ok, const std::string &what) {
        std::printf("self-test %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
        failures += !ok;
    };
    auto everyMetricHasUnit = [](const Result &r, size_t want) {
        if (r.metrics.size() != want)
            return false;
        for (const Metric &m : r.metrics)
            if (m.unit.empty() || m.name.empty())
                return false;
        return true;
    };
    const size_t kEndToEnd = 7, kPerLayer = 25;

    check(warmCaches(opt, kSelfTest) == 0, "warm caches compiled");
    opt.trace = false;
    Result cold = runWorkload(kSelfTest[0], opt);
    printResult(cold);
    check(cold.failed == 0 && cold.attempted > 0,
          "cold cache: every set-up compiled, checksums match");
    check(everyMetricHasUnit(cold, kEndToEnd),
          "cold: every end-to-end metric printed with a unit");
    Result warm = runWorkload(kSelfTest[1], opt);
    printResult(warm);
    check(warm.failed == 0, "warm cache: every set-up hit, checksums match");

    Workload wrong = kSelfTest[1];
    wrong.pin ^= 1;
    Result bad = runWorkload(wrong, opt);
    printResult(bad);
    check(bad.failed > 0, "a wrong pinned checksum raises fail_share");

    Result serve = runWorkload(kSelfTest[2], opt);
    printResult(serve);
    check(serve.failed == 0 && everyMetricHasUnit(serve, kEndToEnd),
          "1 serve client: reference peeks match, every metric printed");

    opt.trace = true;
    Result traced = runWorkload(kSelfTest[1], opt);
    printResult(traced);
    check(everyMetricHasUnit(traced, kPerLayer),
          "traced: every per-layer metric printed with a unit");
    std::string spansPath =
        (fs::path(opt.dir) / "traces" / "pico-warm-seed1.spans.json")
            .string();
    check(fs::exists(spansPath) && traced.misnested == 0,
          "traced: spans written as Chrome trace, each inside its parent");

    // Nesting and self time, checked directly on a recorder.
    SpanRecorder rec(true);
    {
        Scope a(rec, "outer");
        Scope b(rec, "inner");
        std::thread([&] { Scope c(rec, "other-thread"); }).join();
    }
    std::vector<Span> spans = rec.spans();
    check(spans.size() == 3 && spans[1].parent == 0 &&
              spans[2].parent == -1 && misnestedSpans(spans) == 0,
          "spans nest inside their parents");
    std::vector<double> self = selfTimes(spans);
    check(self[0] <= spans[0].t1 - spans[0].t0 &&
              self[0] + (spans[1].t1 - spans[1].t0) <=
                  (spans[0].t1 - spans[0].t0) + 1e-9,
          "self time excludes child spans");

    std::printf("self-test: %s\n", failures ? "FAILED" : "passed");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string workload, mode;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "perfbench: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            workload = value();
        else if (arg == "--seed")
            opt.seed = std::stoull(value());
        else if (arg == "--seconds")
            opt.seconds = std::stod(value());
        else if (arg == "--trace")
            opt.trace = value() != "0";
        else if (arg == "--dir")
            opt.dir = value();
        else if (arg == "--warm" || arg == "--pin" || arg == "--self-test")
            mode = arg;
        else {
            std::fprintf(stderr, "perfbench: unknown argument %s\n",
                         arg.c_str());
            return 2;
        }
    }
    setQuiet(true);
    printHostFacts();
    if (mode == "--warm")
        return warmCaches(opt, kWorkloads);
    if (mode == "--pin")
        return printPins();
    if (mode == "--self-test")
        return selfTest(opt);
    const Workload *w = findWorkload(workload);
    if (!w) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    Result r = runWorkload(*w, opt);
    printResult(r);
    return r.metrics.empty() ? 1 : 0;
}
