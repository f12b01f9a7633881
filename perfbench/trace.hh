/**
 * @file
 * The benchmark's own span recorder.
 *
 * Spans are recorded only by the benchmark, around the calls it makes
 * into each layer's public functions; nothing inside the program is
 * instrumented. A span carries its name, start, end, the span that
 * caused it (the innermost open span on the same thread) and a request
 * id shared by every span of one pass or one served request. Spans are
 * kept in memory and written once, at exit, in the chrome Trace Event Format
 * the repository's obs export uses (src/obs/trace.cc), so Perfetto and
 * chrome://tracing load the file directly.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

inline uint64_t
monoNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct SpanRec
{
    std::string name;
    uint64_t start = 0; ///< steady-clock ns
    uint64_t end = 0;
    uint64_t id = 0;     ///< 1-based
    uint64_t parent = 0; ///< 0 = root
    uint64_t req = 0;
    uint32_t tid = 0;
};

/** Per-name aggregate of the recorded spans. */
struct SpanTotals
{
    uint64_t count = 0;
    double total = 0; ///< seconds
    double self = 0;  ///< seconds not covered by child spans
};

class Tracer
{
  public:
    /** Recording is off until enabled; a disabled Tracer records nothing. */
    void setEnabled(bool on) { on_.store(on); }
    bool enabled() const { return on_.load(); }

    /** Open a span; returns its id (0 when disabled). */
    uint64_t
    begin(const std::string &name, uint64_t req, uint64_t parent,
          uint32_t tid)
    {
        if (!on_.load())
            return 0;
        std::lock_guard<std::mutex> lk(mu_);
        SpanRec r;
        r.name = name;
        r.start = monoNs();
        r.id = spans_.size() + 1;
        r.parent = parent;
        r.req = req;
        r.tid = tid;
        spans_.push_back(std::move(r));
        return spans_.back().id;
    }

    void
    end(uint64_t id)
    {
        if (!id)
            return;
        uint64_t t = monoNs();
        std::lock_guard<std::mutex> lk(mu_);
        spans_[id - 1].end = t;
    }

    /** Snapshot of every finished span. */
    std::vector<SpanRec>
    spans() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::vector<SpanRec> out;
        for (const SpanRec &s : spans_)
            if (s.end)
                out.push_back(s);
        return out;
    }

    /**
     * Self time per span name: each span's duration minus the part of
     * its interval that its children's intervals cover (children of one
     * span may overlap when they ran on several threads, so the covered
     * part is the union of their intervals, clipped to the parent).
     */
    std::map<std::string, SpanTotals>
    totals() const
    {
        std::vector<SpanRec> all = spans();
        std::map<uint64_t, std::vector<const SpanRec *>> kids;
        for (const SpanRec &s : all)
            if (s.parent)
                kids[s.parent].push_back(&s);
        std::map<std::string, SpanTotals> out;
        for (const SpanRec &s : all) {
            std::vector<std::pair<uint64_t, uint64_t>> iv;
            for (const SpanRec *k : kids[s.id])
                iv.emplace_back(std::max(k->start, s.start),
                                std::min(k->end, s.end));
            std::sort(iv.begin(), iv.end());
            uint64_t covered = 0, curS = 0, curE = 0;
            for (auto [a, b] : iv) {
                if (b <= a)
                    continue;
                if (a > curE) {
                    covered += curE - curS;
                    curS = a;
                    curE = b;
                } else {
                    curE = std::max(curE, b);
                }
            }
            covered += curE - curS;
            double dur = (s.end - s.start) * 1e-9;
            SpanTotals &t = out[s.name];
            t.count++;
            t.total += dur;
            t.self += dur - covered * 1e-9;
        }
        return out;
    }

    /** Render the per-name self-time table (sorted by self time). */
    std::string
    selfTimeTable() const
    {
        auto tot = totals();
        std::vector<std::pair<std::string, SpanTotals>> rows(tot.begin(),
                                                             tot.end());
        std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
            return a.second.self > b.second.self;
        });
        std::string out = "span                      count    total_s     self_s\n";
        char line[160];
        for (const auto &[name, t] : rows) {
            std::snprintf(line, sizeof line, "%-24s %6llu %10.4f %10.4f\n",
                          name.c_str(), (unsigned long long)t.count, t.total,
                          t.self);
            out += line;
        }
        return out;
    }

    /** Write every span as chrome Trace Event Format JSON. */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::vector<SpanRec> all = spans();
        uint64_t epoch = UINT64_MAX;
        for (const SpanRec &s : all)
            epoch = std::min(epoch, s.start);
        std::ofstream f(path);
        if (!f)
            return false;
        f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
        char buf[96];
        for (size_t i = 0; i < all.size(); i++) {
            const SpanRec &s = all[i];
            f << (i ? ",\n" : "\n");
            f << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
              << ", \"name\": \"" << s.name << "\", \"cat\": \"perfbench\"";
            std::snprintf(buf, sizeof buf, ", \"ts\": %.3f, \"dur\": %.3f",
                          (s.start - epoch) / 1000.0,
                          (s.end - s.start) / 1000.0);
            f << buf << ", \"args\": {\"id\": " << s.id
              << ", \"parent\": " << s.parent << ", \"req\": " << s.req
              << "}}";
        }
        f << "\n]}\n";
        return static_cast<bool>(f);
    }

  private:
    std::atomic<bool> on_{false};
    mutable std::mutex mu_;
    std::vector<SpanRec> spans_;
};

/** The innermost open span on this thread (implicit parent). */
inline thread_local uint64_t tlsOpenSpan = 0;
inline thread_local uint32_t tlsTid = 0;

/** RAII span; its parent is the innermost open span on this thread. */
class Span
{
  public:
    Span(Tracer &t, const std::string &name, uint64_t req)
        : t_(t), prev_(tlsOpenSpan)
    {
        id_ = t_.begin(name, req, prev_, tlsTid);
        if (id_)
            tlsOpenSpan = id_;
    }
    ~Span()
    {
        if (id_) {
            t_.end(id_);
            tlsOpenSpan = prev_;
        }
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t_;
    uint64_t prev_;
    uint64_t id_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
