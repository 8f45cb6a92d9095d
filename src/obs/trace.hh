/**
 * @file
 * Scoped tracing with chrome://tracing-compatible JSON export.
 *
 * A Span is an RAII scope: construction samples the steady clock,
 * destruction appends one complete event to the recording thread's
 * private buffer. Buffers are strictly per-thread — only the owning
 * thread ever appends — so recording never contends: the per-buffer
 * mutex exists solely so the exporter can take a consistent snapshot
 * while pool worker threads are still alive, and is uncontended on the
 * hot path. When observability is disabled (obs::enabled() == false) a
 * Span is inert: one relaxed atomic load, no clock read, no buffer
 * touch.
 *
 * Span names and categories must be string literals (or otherwise
 * outlive the trace); args are numeric key/value pairs stored inline,
 * so recording a span never allocates.
 *
 * An event lands on the track of the thread that records it.
 * exportChromeTrace()/traceJson() emit the Trace Event Format JSON that
 * chrome://tracing and Perfetto load directly.
 */

#ifndef OBS_TRACE_HH
#define OBS_TRACE_HH

#include <cstdint>
#include <string>

#include "obs/obs.hh"

namespace rmp::obs
{

/** An RAII trace span ("X" complete event in the chrome trace). */
class Span
{
  public:
    static constexpr int kMaxArgs = 6;

    explicit Span(const char *name, const char *cat = "rmp")
    {
        if (enabled()) {
            name_ = name;
            cat_ = cat;
            t0_ = nowNs();
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span()
    {
        if (name_)
            finish();
    }

    /** True when this span is recording (observability was enabled). */
    bool active() const { return name_ != nullptr; }

    /** Attach a numeric argument (ignored beyond kMaxArgs / inactive). */
    void
    arg(const char *key, uint64_t value)
    {
        if (name_ && nargs_ < kMaxArgs) {
            keys_[nargs_] = key;
            vals_[nargs_] = value;
            nargs_++;
        }
    }

  private:
    void finish();

    const char *name_ = nullptr;
    const char *cat_ = nullptr;
    uint64_t t0_ = 0;
    const char *keys_[kMaxArgs];
    uint64_t vals_[kMaxArgs];
    int nargs_ = 0;
};

/** Total spans recorded so far (across all threads). */
size_t eventCount();

/** Drop all recorded events (buffers stay registered). */
void clearTrace();

/** The full trace as chrome Trace Event Format JSON. */
std::string traceJson();

/** Write traceJson() to @p path; returns false on I/O failure. */
bool exportChromeTrace(const std::string &path);

} // namespace rmp::obs

#endif // OBS_TRACE_HH
