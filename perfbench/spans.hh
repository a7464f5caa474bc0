/**
 * @file
 * Benchmark-side span recorder. The harness opens a span around every
 * call it makes into a simulator layer (design generation, optimize,
 * engine construction, native attach, serve requests, checkpoints):
 * name, start, end, parent span and a per-session id. Spans stay in
 * memory and are written out once, at the end, as Chrome trace events
 * that open next to obs::writeChromeTrace output.
 *
 * A disabled recorder still times each scope (the untraced runs need
 * the durations) but records nothing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    double t0 = 0;          ///< seconds since the recorder's epoch
    double t1 = 0;
    int parent = -1;        ///< index into the span list, -1 = root
    uint64_t session = 0;   ///< serve session id, 0 = none
    uint32_t tid = 0;       ///< recording thread (small integer)
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    bool enabled() const { return enabled_; }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_)
            .count();
    }

    /** Open a span on the calling thread; returns its index (-1 when
     *  disabled). The innermost open span of this thread is its
     *  parent. */
    int
    open(const std::string &name, uint64_t session)
    {
        if (!enabled_)
            return -1;
        std::vector<int> &stack = threadStack();
        std::lock_guard<std::mutex> lock(mutex_);
        Span s;
        s.name = name;
        s.t0 = now();
        s.parent = stack.empty() ? -1 : stack.back();
        s.session = session;
        s.tid = tidOf(std::this_thread::get_id());
        spans_.push_back(std::move(s));
        int id = static_cast<int>(spans_.size() - 1);
        stack.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        std::vector<int> &stack = threadStack();
        if (!stack.empty() && stack.back() == id)
            stack.pop_back();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<size_t>(id)].t1 = now();
    }

    /** Quiesced snapshot of every recorded span. */
    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    std::vector<int> &
    threadStack()
    {
        thread_local std::map<const SpanRecorder *, std::vector<int>>
            stacks;
        return stacks[this];
    }

    uint32_t
    tidOf(std::thread::id id)
    {
        auto it = tids_.find(id);
        if (it != tids_.end())
            return it->second;
        uint32_t t = static_cast<uint32_t>(tids_.size());
        tids_.emplace(id, t);
        return t;
    }

    const bool enabled_;
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::thread::id, uint32_t> tids_;
};

/** RAII scope: always measures its own duration; records a span only
 *  when the recorder is enabled. */
class Scope
{
  public:
    Scope(SpanRecorder &rec, const std::string &name, uint64_t session = 0)
        : rec_(rec), t0_(Clock::now()), id_(rec.open(name, session))
    {
    }
    ~Scope() { stop(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Close the span now; returns its duration in seconds. */
    double
    stop()
    {
        if (!done_) {
            sec_ = std::chrono::duration<double>(Clock::now() - t0_)
                       .count();
            rec_.close(id_);
            done_ = true;
        }
        return sec_;
    }

  private:
    SpanRecorder &rec_;
    Clock::time_point t0_;
    int id_;
    bool done_ = false;
    double sec_ = 0;
};

/** Self time of every span: its duration minus the union of the
 *  intervals its direct children cover (clipped to the span). */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].emplace_back(s.t0, s.t1);
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, end = p.t0;
        for (auto [a, b] : iv) {
            a = std::max(a, end);
            b = std::min(b, p.t1);
            if (b > a) {
                covered += b - a;
                end = b;
            }
        }
        self[i] = (p.t1 - p.t0) - covered;
    }
    return self;
}

/** Spans that do not lie inside their parent's interval (the
 *  self-test asserts there are none). */
inline size_t
misnestedSpans(const std::vector<Span> &spans)
{
    size_t bad = 0;
    for (const Span &s : spans) {
        if (s.t1 < s.t0)
            ++bad;
        else if (s.parent >= 0) {
            const Span &p = spans[static_cast<size_t>(s.parent)];
            if (s.t0 < p.t0 || s.t1 > p.t1 || s.tid != p.tid)
                ++bad;
        }
    }
    return bad;
}

/** Chrome trace-event JSON ("X" complete events, microseconds). */
inline bool
writeSpansChromeTrace(const std::vector<Span> &spans,
                      const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::vector<double> self = selfTimes(spans);
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"session\":%llu,"
                     "\"self_us\":%.3f}}\n",
                     i ? "," : "", s.name.c_str(), s.tid, s.t0 * 1e6,
                     (s.t1 - s.t0) * 1e6, i, s.parent,
                     static_cast<unsigned long long>(s.session),
                     self[i] * 1e6);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
