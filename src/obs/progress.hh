/**
 * @file
 * Live synthesis progress reporting.
 *
 * A ProgressSink receives (phase, done, total) updates from the
 * synthesis layers — exploration runs finished, covers evaluated per
 * step, IUVs completed — so long runs (the paper's multi-day CVA6
 * campaigns, §VII-B3) are observable while in flight. The sink is
 * installed globally and updates may arrive from pool worker threads,
 * so implementations must be internally synchronized; the default
 * StderrProgress rewrites a single rate-limited status line.
 *
 * With no sink installed, progress() is one relaxed atomic load.
 */

#ifndef OBS_PROGRESS_HH
#define OBS_PROGRESS_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace rmp::obs
{

/** One progress update. @p phase must outlive the call (string literal). */
struct Progress
{
    const char *phase = "";
    uint64_t done = 0;
    uint64_t total = 0; ///< 0 when the total is unknown
    std::string detail; ///< e.g. the IUV or design under work
};

class ProgressSink
{
  public:
    virtual ~ProgressSink() = default;
    virtual void update(const Progress &p) = 0;
};

/** Install @p sink (not owned; nullptr uninstalls). Thread-safe. */
void setProgressSink(ProgressSink *sink);

/**
 * Install @p sink for the *calling thread only* (not owned; nullptr
 * uninstalls). A thread-local sink takes precedence over the global
 * one, so concurrent jobs — e.g. daemon workers streaming progress to
 * different clients — do not interleave their updates. Pool worker
 * threads inherit the submitting thread's sink for the duration of a
 * fan-out (see exec::parallelFor).
 */
void setThreadProgressSink(ProgressSink *sink);

/** The calling thread's local sink, or nullptr. */
ProgressSink *threadProgressSink();

/** RAII installer for a thread-local sink; restores the previous one. */
class ScopedProgressSink
{
  public:
    explicit ScopedProgressSink(ProgressSink *sink)
        : prev_(threadProgressSink())
    {
        setThreadProgressSink(sink);
    }
    ~ScopedProgressSink() { setThreadProgressSink(prev_); }
    ScopedProgressSink(const ScopedProgressSink &) = delete;
    ScopedProgressSink &operator=(const ScopedProgressSink &) = delete;

  private:
    ProgressSink *prev_;
};

/** Report progress to the thread-local sink, else the global one. */
void progress(const char *phase, uint64_t done, uint64_t total,
              const std::string &detail = "");

/**
 * Default sink: a single in-place status line on stderr, rewritten at
 * most every @p minIntervalNs (phase changes always print).
 */
class StderrProgress : public ProgressSink
{
  public:
    explicit StderrProgress(uint64_t minIntervalNs = 100'000'000);
    ~StderrProgress() override;

    void update(const Progress &p) override;

  private:
    std::mutex mu;
    uint64_t minIntervalNs_;
    uint64_t lastNs_ = 0;
    std::string lastPhase_;
    bool dirty_ = false; ///< a line is on screen and needs a final \n
};

} // namespace rmp::obs

#endif // OBS_PROGRESS_HH
