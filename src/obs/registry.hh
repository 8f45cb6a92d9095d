/**
 * @file
 * Thread-safe metrics registry: counters, gauges, and log2-bucketed
 * histograms (for times and sizes), identified by (name, labels).
 *
 * Handles returned by Registry::counter()/gauge()/histogram() are stable
 * references into registry-owned storage: acquisition takes the registry
 * mutex once, after which every update is a lock-free atomic operation.
 * Instrumented subsystems acquire their handles at construction time
 * (e.g. exec::QueryCache) or on first use and hold them for their
 * lifetime; Registry::reset() zeroes values but never invalidates a
 * handle, so tests can reset between cases while pools stay live.
 *
 * Labels attribute a metric to its source — design, IUV, property class,
 * pool instance — mirroring how the paper's evaluation (§VII) breaks
 * verifier effort down per DUV and per property template.
 */

#ifndef OBS_REGISTRY_HH
#define OBS_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rmp::obs
{

/** Monotonic counter. Updates are relaxed atomic adds (exact totals). */
class Counter
{
  public:
    void add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Last-write-wins instantaneous value (e.g. live instance sizes). */
class Gauge
{
  public:
    void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
    int64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v_{0};
};

/**
 * Log2-bucketed histogram for durations (record ns) and sizes (record
 * counts). Bucket b holds samples with floor(log2(v)) == b (v=0 goes to
 * bucket 0); sum/count/max give exact aggregates. All updates are
 * relaxed atomics, so concurrent recording from pool workers is exact
 * for count and sum and monotonic for max.
 */
class Histogram
{
  public:
    static constexpr unsigned kBuckets = 64;

    void
    record(uint64_t v)
    {
        unsigned b = 0;
        // Bound first: 1ULL << 64 is undefined for v >= 2^63.
        while (b + 1 < kBuckets && (1ULL << (b + 1)) <= v)
            b++;
        buckets_[b].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        uint64_t prev = max_.load(std::memory_order_relaxed);
        while (v > prev &&
               !max_.compare_exchange_weak(prev, v,
                                           std::memory_order_relaxed))
            ;
    }

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    uint64_t max() const { return max_.load(std::memory_order_relaxed); }
    double
    mean() const
    {
        uint64_t c = count();
        return c ? static_cast<double>(sum()) / static_cast<double>(c) : 0.0;
    }
    uint64_t
    bucket(unsigned b) const
    {
        return buckets_[b].load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        for (auto &b : buckets_)
            b.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> buckets_[kBuckets]{};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> max_{0};
};

/** Sorted label list; rendered as `k1=v1,k2=v2`. */
struct Labels
{
    std::vector<std::pair<std::string, std::string>> kv;

    Labels() = default;
    Labels(std::initializer_list<std::pair<std::string, std::string>> init);

    std::string str() const;
    bool operator<(const Labels &o) const { return kv < o.kv; }
};

/** One metric's point-in-time value, for rendering and JSON export. */
struct Sample
{
    enum class Kind : uint8_t { Counter, Gauge, Histogram };

    std::string name;
    std::string labels;
    Kind kind = Kind::Counter;
    /** Counter/gauge value, or histogram count. */
    int64_t value = 0;
    /** Histogram aggregates (0 for counters/gauges). */
    uint64_t sum = 0;
    uint64_t max = 0;
    double mean = 0.0;
};

/**
 * The registry. One process-global instance (Registry::global()) backs
 * the `--stats` report and the run-summary JSON; independent instances
 * can be constructed for tests.
 */
class Registry
{
  public:
    static Registry &global();

    Counter &counter(const std::string &name, const Labels &labels = {});
    Gauge &gauge(const std::string &name, const Labels &labels = {});
    Histogram &histogram(const std::string &name, const Labels &labels = {});

    /** All metrics, sorted by (name, labels). */
    std::vector<Sample> snapshot() const;

    /**
     * Zero every metric. Handles stay valid — metrics are zeroed in
     * place, never destroyed — so long-lived instruments keep working.
     */
    void reset();

  private:
    struct Metric
    {
        Sample::Kind kind;
        std::unique_ptr<Counter> c;
        std::unique_ptr<Gauge> g;
        std::unique_ptr<Histogram> h;
    };

    Metric &find(const std::string &name, const Labels &labels,
                 Sample::Kind kind);

    mutable std::mutex mu;
    std::map<std::pair<std::string, Labels>, Metric> metrics;
};

} // namespace rmp::obs

#endif // OBS_REGISTRY_HH
