/**
 * @file
 * Tests for the observability subsystem (src/obs): registry metric
 * kinds, labels, snapshots and in-place reset; histogram bucketing;
 * span recording and chrome-trace JSON shape; the disabled-mode
 * fast path; exact counter totals under concurrent hammering; progress
 * sink plumbing; and end-to-end cache-counter accuracy under a
 * multi-threaded engine-pool load (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine_pool.hh"
#include "obs/obs.hh"
#include "obs/progress.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "rtlir/builder.hh"

using namespace rmp;
using namespace rmp::obs;

namespace
{

/** Reset global obs state around each test. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setEnabled(false);
        Registry::global().reset();
        clearTrace();
    }
    void
    TearDown() override
    {
        setEnabled(false);
        setProgressSink(nullptr);
        Registry::global().reset();
        clearTrace();
    }
};

} // anonymous namespace

TEST_F(ObsTest, CounterGaugeHistogramBasics)
{
    Registry reg;
    Counter &c = reg.counter("c");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);

    Gauge &g = reg.gauge("g");
    g.set(-7);
    g.add(10);
    EXPECT_EQ(g.value(), 3);

    Histogram &h = reg.histogram("h");
    h.record(0);
    h.record(1);
    h.record(100);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 101u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 101.0 / 3.0);
}

TEST_F(ObsTest, HistogramLog2Buckets)
{
    Histogram h;
    h.record(0);  // bucket 0
    h.record(1);  // bucket 0
    h.record(2);  // bucket 1
    h.record(3);  // bucket 1
    h.record(4);  // bucket 2
    h.record(~0ULL); // clamped to the last bucket
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1u);
}

TEST_F(ObsTest, LabelsDistinguishSeriesAndSortCanonically)
{
    Registry reg;
    Counter &a = reg.counter("m", {{"design", "tiny3"}, {"iuv", "MUL"}});
    // Same labels in the opposite order: identical series.
    Counter &b = reg.counter("m", {{"iuv", "MUL"}, {"design", "tiny3"}});
    Counter &c = reg.counter("m", {{"iuv", "ADD"}, {"design", "tiny3"}});
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
    a.add(2);
    c.add(1);
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].labels, "design=tiny3,iuv=ADD");
    EXPECT_EQ(snap[0].value, 1);
    EXPECT_EQ(snap[1].labels, "design=tiny3,iuv=MUL");
    EXPECT_EQ(snap[1].value, 2);
}

TEST_F(ObsTest, ResetZeroesInPlaceWithoutInvalidatingHandles)
{
    Registry reg;
    Counter &c = reg.counter("c");
    Histogram &h = reg.histogram("h");
    c.add(9);
    h.record(16);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    // The old handles keep working after reset.
    c.add(1);
    h.record(2);
    EXPECT_EQ(c.value(), 1u);
    EXPECT_EQ(h.count(), 1u);
}

TEST_F(ObsTest, SnapshotReportsKindsAndAggregates)
{
    Registry reg;
    reg.counter("z.count").add(3);
    reg.gauge("a.gauge").set(-2);
    Histogram &h = reg.histogram("m.hist");
    h.record(10);
    h.record(30);
    auto snap = reg.snapshot(); // sorted by (name, labels)
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a.gauge");
    EXPECT_EQ(snap[0].kind, Sample::Kind::Gauge);
    EXPECT_EQ(snap[0].value, -2);
    EXPECT_EQ(snap[1].name, "m.hist");
    EXPECT_EQ(snap[1].kind, Sample::Kind::Histogram);
    EXPECT_EQ(snap[1].value, 2);
    EXPECT_EQ(snap[1].sum, 40u);
    EXPECT_EQ(snap[1].max, 30u);
    EXPECT_EQ(snap[2].name, "z.count");
    EXPECT_EQ(snap[2].kind, Sample::Kind::Counter);
}

TEST_F(ObsTest, DisabledSpansRecordNothing)
{
    ASSERT_FALSE(enabled());
    {
        Span s("invisible", "test");
        s.arg("k", 1);
        EXPECT_FALSE(s.active());
    }
    EXPECT_EQ(eventCount(), 0u);
}

TEST_F(ObsTest, SpansRecordAndExportChromeTraceJson)
{
    setEnabled(true);
    {
        Span outer("outer", "test");
        outer.arg("n", 42);
        Span inner("inner", "test");
    }
    {
        ScopedTrack t(3);
        setTrackName(3, "lane-3");
        Span s("on-lane", "test");
    }
    setEnabled(false);
    EXPECT_EQ(eventCount(), 3u);

    std::string json = traceJson();
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"on-lane\""), std::string::npos);
    EXPECT_NE(json.find("\"n\": 42"), std::string::npos);
    // The named track appears as thread-name metadata with tid 3.
    EXPECT_NE(json.find("\"lane-3\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(ObsTest, ClearTraceDropsEvents)
{
    setEnabled(true);
    { Span s("x", "test"); }
    setEnabled(false);
    EXPECT_EQ(eventCount(), 1u);
    clearTrace();
    EXPECT_EQ(eventCount(), 0u);
}

TEST_F(ObsTest, ConcurrentCounterTotalsAreExact)
{
    Registry reg;
    Counter &c = reg.counter("hammer");
    Histogram &h = reg.histogram("hammer.h");
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kIters = 20'000;
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; t++)
        ts.emplace_back([&] {
            for (uint64_t i = 0; i < kIters; i++) {
                c.add(1);
                h.record(i);
            }
        });
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kIters);
    EXPECT_EQ(h.count(), kThreads * kIters);
    EXPECT_EQ(h.sum(), kThreads * (kIters * (kIters - 1) / 2));
    EXPECT_EQ(h.max(), kIters - 1);
}

TEST_F(ObsTest, ConcurrentSpanRecordingIsRaceFree)
{
    setEnabled(true);
    constexpr unsigned kThreads = 4;
    constexpr unsigned kSpans = 500;
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; t++)
        ts.emplace_back([t] {
            ScopedTrack track(static_cast<int32_t>(t));
            for (unsigned i = 0; i < kSpans; i++) {
                Span s("worker-span", "test");
                s.arg("i", i);
            }
        });
    for (auto &t : ts)
        t.join();
    setEnabled(false);
    EXPECT_EQ(eventCount(), kThreads * kSpans);
    // Export while worker buffers exist must be consistent.
    std::string json = traceJson();
    EXPECT_NE(json.find("worker-span"), std::string::npos);
}

TEST_F(ObsTest, ProgressSinkReceivesUpdates)
{
    struct CaptureSink : ProgressSink
    {
        std::atomic<uint64_t> updates{0};
        uint64_t lastDone = 0, lastTotal = 0;
        std::string lastPhase;
        void
        update(const Progress &p) override
        {
            updates++;
            lastDone = p.done;
            lastTotal = p.total;
            lastPhase = p.phase;
        }
    } sink;
    progress("before-install", 1, 2); // no sink: dropped
    setProgressSink(&sink);
    progress("phase-a", 3, 10, "tiny3");
    setProgressSink(nullptr);
    progress("after-uninstall", 4, 10);
    EXPECT_EQ(sink.updates.load(), 1u);
    EXPECT_EQ(sink.lastPhase, "phase-a");
    EXPECT_EQ(sink.lastDone, 3u);
    EXPECT_EQ(sink.lastTotal, 10u);
}

namespace
{

/** A free-running 4-bit counter design (same shape as test_exec). */
struct CounterDesign
{
    Design d{"counter"};
    SigId cnt;

    CounterDesign()
    {
        Builder b(d);
        RegSig c = b.regh("cnt", 4, 0);
        b.assign(c, c.q + b.lit(4, 1));
        b.finalize();
        cnt = c.q.id;
    }
};

} // anonymous namespace

TEST_F(ObsTest, PoolCacheCountersExactUnderConcurrentLoad)
{
    // QueryCache hit/miss counters live in the registry; they must stay
    // exact when a jobs=4 pool evaluates a batch full of duplicates. 16
    // distinct queries, each submitted 4 times: the first submission of
    // each misses and solves (16 misses, 16 entries), and the 48 later
    // ones are served from the published entries (48 hits) — exactly,
    // on every run.
    CounterDesign cd;
    bmc::EngineConfig ecfg;
    ecfg.bound = 18;
    exec::EnginePool pool(cd.d, ecfg, exec::ExecConfig{.jobs = 4});
    std::vector<exec::Query> qs;
    for (unsigned rep = 0; rep < 4; rep++)
        for (unsigned v = 0; v < 16; v++)
            qs.push_back(exec::Query{
                prop::pEq(cd.cnt, v), {}, -1});
    auto rs = pool.evalBatch(qs);
    ASSERT_EQ(rs.size(), qs.size());
    for (const auto &r : rs)
        EXPECT_EQ(r.outcome, bmc::Outcome::Reachable);
    exec::CacheStats cs = pool.stats().cache;
    EXPECT_EQ(cs.misses, 16u);
    EXPECT_EQ(cs.hits, 48u);
    EXPECT_EQ(cs.entries, 16u);

    // A second pool (its own cache instance) tallies independently: the
    // first pool's numbers must not move.
    exec::EnginePool pool2(cd.d, ecfg, exec::ExecConfig{.jobs = 2});
    auto r2 = pool2.eval(exec::Query{prop::pEq(cd.cnt, 3), {}, -1});
    EXPECT_EQ(r2.outcome, bmc::Outcome::Reachable);
    EXPECT_EQ(pool2.stats().cache.misses, 1u);
    EXPECT_EQ(pool2.stats().cache.hits, 0u);
    EXPECT_EQ(pool.stats().cache.misses, 16u);
    EXPECT_EQ(pool.stats().cache.hits, 48u);
}

TEST_F(ObsTest, PoolInstrumentationDoesNotChangeVerdicts)
{
    // Determinism contract: enabling observability must not perturb
    // outcomes. Same batch, obs off vs on.
    CounterDesign cd;
    bmc::EngineConfig ecfg;
    ecfg.bound = 18;
    std::vector<exec::Query> qs;
    for (unsigned v = 0; v < 16; v++)
        qs.push_back(exec::Query{prop::pEq(cd.cnt, v), {}, -1});

    exec::EnginePool off(cd.d, ecfg, exec::ExecConfig{.jobs = 4});
    auto r_off = off.evalBatch(qs);

    setEnabled(true);
    exec::EnginePool on(cd.d, ecfg, exec::ExecConfig{.jobs = 4});
    auto r_on = on.evalBatch(qs);
    setEnabled(false);

    ASSERT_EQ(r_off.size(), r_on.size());
    for (size_t i = 0; i < r_off.size(); i++)
        EXPECT_EQ(r_off[i].outcome, r_on[i].outcome) << i;
    EXPECT_GT(eventCount(), 0u); // the enabled run actually recorded
}
