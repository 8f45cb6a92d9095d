/**
 * @file
 * Shared pieces of the benchmark harness: the steady clock, the
 * benchmark's own span recorder, and small JSON writing helpers.
 *
 * The harness only calls the program's public entry points; its spans
 * wrap those calls (and each daemon request) and never reach inside the
 * program. Spans stay in memory and are written once, at exit.
 */

#ifndef RMPBENCH_BENCH_HH
#define RMPBENCH_BENCH_HH

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "report/json.hh"

namespace rmpbench
{

/** Steady-clock nanoseconds; the same clock the program's obs spans use,
 *  so the two span sets line up on one time axis. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Peak resident set of this process, in KiB. */
inline uint64_t
maxRssKb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss);
}

/** One recorded span: [t0, t1] on the steady clock. */
struct SpanRec
{
    std::string name;
    uint64_t t0 = 0;
    uint64_t t1 = 0;
    int64_t parent = -1; ///< index into the log, -1 = root
    uint64_t req = 0;    ///< request id (0 = none)
    unsigned thread = 0; ///< recording thread (0 = main)
};

/**
 * In-memory span log shared by every recording thread. A Scope opens a
 * span whose parent is the innermost open span of the same thread.
 */
class SpanLog
{
  public:
    int64_t
    open(const char *name, int64_t parent, uint64_t req, unsigned thread)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, nowNs(), 0, parent, req, thread});
        return static_cast<int64_t>(spans_.size() - 1);
    }

    void
    close(int64_t idx)
    {
        uint64_t t = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<size_t>(idx)].t1 = t;
    }

    /** Seconds of the span at @p idx. */
    double
    seconds(int64_t idx) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        const SpanRec &s = spans_[static_cast<size_t>(idx)];
        return static_cast<double>(s.t1 - s.t0) * 1e-9;
    }

    /** The whole log as a JSON array of {name,t0,t1,parent,req,thread}. */
    std::string json() const;

    /** Write json() to @p path; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<SpanRec> spans_;
};

/** The process-wide span log. */
SpanLog &spanLog();

/** RAII span on the calling thread's stack of open spans. */
class Scope
{
  public:
    explicit Scope(const char *name, uint64_t req = 0);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Close early and return the span's seconds. */
    double end();

  private:
    int64_t idx_;
    bool open_ = true;
};

/** Name the calling thread in recorded spans (0 = main). */
void setSpanThread(unsigned thread);

/** A double rendered with every significant digit. */
std::string num(double v);

/** A check outcome for the correctness gate. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
    int pass = -1; ///< daemon-mix pass the check belongs to (-1: none)
};

/** JSON array of checks. */
std::string checksJson(const std::vector<Check> &checks);

/** 32-hex-digit content digest of @p text. */
std::string digest(const std::string &text);

} // namespace rmpbench

#endif // RMPBENCH_BENCH_HH
