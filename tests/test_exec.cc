/**
 * @file
 * Tests for the evaluation layer (src/exec): engine-pool eval vs. a
 * direct engine, cross-query memoization (hits replay identical
 * results, including witnesses), in-batch deduplication, jobs-invariant
 * batch results, one engine per pool answering in submission order,
 * SAT-budget exhaustion surfacing end-to-end as Undetermined, and
 * parallelFor coverage.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "exec/engine_pool.hh"
#include "obs/obs.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "rtlir/builder.hh"

using namespace rmp;
using namespace rmp::bmc;
using namespace rmp::exec;
using namespace rmp::prop;

namespace
{

/** A free-running 4-bit counter design. */
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

/**
 * A hard instance for a conflict-limited solver: a registered 16x16-bit
 * multiplier product of two free inputs, covered against a fixed
 * semiprime constant. Finding (or refuting) a factorization needs far
 * more than one conflict.
 */
struct FactorDesign
{
    Design d{"factor"};
    SigId a, b, prod;

    FactorDesign()
    {
        Builder bld(d);
        Sig ia = bld.input("a", 16);
        Sig ib = bld.input("b", 16);
        RegSig p = bld.regh("prod", 16, 0);
        bld.assign(p, ia * ib);
        bld.finalize();
        a = ia.id;
        b = ib.id;
        prod = p.q.id;
    }

    /** 251 * 241: a semiprime that fits 16 bits. */
    static constexpr uint64_t kSemiprime = 60491;
};

EngineConfig
counterCfg()
{
    EngineConfig cfg;
    cfg.bound = 10;
    return cfg;
}

void
expectSameResult(const CoverResult &a, const CoverResult &b, SigId watch)
{
    ASSERT_EQ(a.outcome, b.outcome);
    if (a.outcome != Outcome::Reachable)
        return;
    EXPECT_EQ(a.witness.matchFrame, b.witness.matchFrame);
    EXPECT_EQ(a.witness.inputs, b.witness.inputs);
    ASSERT_EQ(a.witness.trace.numCycles(), b.witness.trace.numCycles());
    for (size_t t = 0; t < a.witness.trace.numCycles(); t++)
        EXPECT_EQ(a.witness.trace.value(t, watch),
                  b.witness.trace.value(t, watch))
            << "cycle " << t;
}

} // namespace

TEST(Exec, EvalMatchesDirectEngine)
{
    CounterDesign cd;
    Engine eng(cd.d, counterCfg());
    CoverResult direct = eng.cover(pEq(cd.cnt, 7), {});

    EnginePool pool(cd.d, counterCfg(), ExecConfig{.jobs = 1});
    CoverResult pooled = pool.eval(Query{pEq(cd.cnt, 7), {}, -1});
    expectSameResult(direct, pooled, cd.cnt);
    EXPECT_EQ(pooled.witness.matchFrame, 7u);
}

TEST(Exec, RepeatedQueryHitsCacheAndReplaysWitness)
{
    CounterDesign cd;
    EnginePool pool(cd.d, counterCfg(), ExecConfig{.jobs = 1});
    CoverResult first = pool.eval(Query{pEq(cd.cnt, 7), {}, -1});
    CoverResult again = pool.eval(Query{pEq(cd.cnt, 7), {}, -1});
    expectSameResult(first, again, cd.cnt);

    PoolStats s = pool.stats();
    EXPECT_EQ(s.engine.queries, 1u); // one solver evaluation...
    EXPECT_EQ(s.cache.hits, 1u);     // ...and one memoized replay
    EXPECT_EQ(s.cache.misses, 1u);
    EXPECT_EQ(s.cache.entries, 1u);
}

TEST(Exec, DistinctAssumesAndFramesAreDistinctCacheKeys)
{
    CounterDesign cd;
    EnginePool pool(cd.d, counterCfg(), ExecConfig{.jobs = 1});
    CoverResult plain = pool.eval(Query{pEq(cd.cnt, 7), {}, -1});
    // Same cover under a tautological assume: a different cache key even
    // though the verdict cannot change.
    ExprRef tauto = pOr(pEq(cd.cnt, 7), pNot(pEq(cd.cnt, 7)));
    CoverResult assumed = pool.eval(Query{pEq(cd.cnt, 7), {tauto}, -1});
    // Same cover pinned to a fixed frame: also a different query.
    CoverResult pinned = pool.eval(Query{pEq(cd.cnt, 7), {}, 7});
    EXPECT_EQ(plain.outcome, Outcome::Reachable);
    EXPECT_EQ(assumed.outcome, Outcome::Reachable);
    EXPECT_EQ(pinned.outcome, Outcome::Reachable);
    PoolStats s = pool.stats();
    EXPECT_EQ(s.cache.hits, 0u);
    EXPECT_EQ(s.cache.misses, 3u);
    EXPECT_EQ(s.cache.entries, 3u);
}

TEST(Exec, BatchDeduplicatesAndPreservesOrder)
{
    CounterDesign cd;
    EnginePool pool(cd.d, counterCfg(), ExecConfig{.jobs = 4});
    std::vector<Query> qs;
    for (unsigned v = 0; v < 4; v++)
        qs.push_back(Query{pEq(cd.cnt, v + 3), {}, -1});
    // Duplicates of the first and third query, plus an unreachable one.
    qs.push_back(Query{pEq(cd.cnt, 3), {}, -1});
    qs.push_back(Query{pEq(cd.cnt, 5), {}, -1});
    qs.push_back(Query{pEq(cd.cnt, 12), {}, -1}); // beyond bound 10

    std::vector<CoverResult> rs = pool.evalBatch(qs);
    ASSERT_EQ(rs.size(), qs.size());
    for (unsigned v = 0; v < 4; v++) {
        ASSERT_EQ(rs[v].outcome, Outcome::Reachable) << v;
        EXPECT_EQ(rs[v].witness.matchFrame, v + 3);
    }
    expectSameResult(rs[0], rs[4], cd.cnt);
    expectSameResult(rs[2], rs[5], cd.cnt);
    EXPECT_EQ(rs[6].outcome, Outcome::Unreachable);

    PoolStats s = pool.stats();
    EXPECT_EQ(s.engine.queries, 5u); // 4 distinct reachable + 1 unreachable
    EXPECT_EQ(s.cache.hits, 2u);     // the two in-batch duplicates...
    EXPECT_EQ(s.cache.misses, 5u);   // ...which never count as misses
}

TEST(Exec, BatchResultsAreJobsInvariant)
{
    CounterDesign cd;
    std::vector<Query> qs;
    for (unsigned v = 0; v < 10; v++)
        qs.push_back(Query{pEq(cd.cnt, v), {}, -1});

    EnginePool serial(cd.d, counterCfg(), ExecConfig{.jobs = 1});
    EnginePool threaded(cd.d, counterCfg(), ExecConfig{.jobs = 4});
    std::vector<CoverResult> a = serial.evalBatch(qs);
    std::vector<CoverResult> b = threaded.evalBatch(qs);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++)
        expectSameResult(a[i], b[i], cd.cnt);
    EXPECT_EQ(serial.stats().engine.queries,
              threaded.stats().engine.queries);
}

TEST(Exec, PoolBuildsOneUnrolling)
{
    // A four-worker pool unrolls the design once, for its one engine,
    // and answers as a one-thread pool does.
    CounterDesign cd;
    std::vector<Query> qs;
    for (unsigned v = 0; v < 16; v++)
        qs.push_back(Query{pEq(cd.cnt, v), {}, -1});
    EnginePool serial(cd.d, counterCfg(), ExecConfig{.jobs = 1});
    std::vector<CoverResult> expected = serial.evalBatch(qs);

    obs::Counter &frames =
        obs::Registry::global().counter("bmc.unroll.frames");
    obs::setEnabled(true);
    uint64_t before = frames.value();
    EnginePool pool(cd.d, counterCfg(), ExecConfig{.jobs = 4});
    std::vector<CoverResult> got = pool.evalBatch(qs);
    uint64_t unrolled = frames.value() - before;
    obs::setEnabled(false);
    obs::clearTrace();

    EXPECT_EQ(pool.stats().lanesBuilt, 1u);
    EXPECT_EQ(unrolled, counterCfg().bound);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); i++)
        expectSameResult(expected[i], got[i], cd.cnt);
}

TEST(Exec, PoolAnswersLikeOneEngineInSubmissionOrder)
{
    // The pool's contract: every cache-missed query runs on one engine,
    // in submission order, whatever the thread count. Under a tight
    // budget a verdict depends on what the engine solved before, so
    // this holds only if the pool's engine sees exactly the direct
    // engine's query sequence.
    FactorDesign fd;
    EngineConfig cfg;
    cfg.bound = 3;
    cfg.budget.maxConflicts = 10;
    ExprRef nontrivial = pAnd(pNot(pEq(fd.a, 1)), pNot(pEq(fd.b, 1)));
    auto cover = [&](uint64_t v, bool hard, int frame = -1) {
        std::vector<ExprRef> assumes;
        if (hard)
            assumes.push_back(nontrivial);
        return Query{pEq(fd.prod, v), assumes, frame};
    };
    // Two batches and three single evals; each duplicate repeats a query
    // submitted earlier, in its own batch or an earlier call.
    std::vector<std::vector<Query>> calls = {
        {cover(FactorDesign::kSemiprime, true), cover(35, false),
         cover(FactorDesign::kSemiprime, true), cover(59989, true),
         cover(6, false)},
        {cover(35, false)},
        {cover(143, true)},
        {cover(59989, true), cover(12, false, 1), cover(65521, true),
         cover(143, true), cover(FactorDesign::kSemiprime, true, 2)},
        {cover(65521, true)},
    };
    std::vector<Query> all;
    for (const auto &c : calls)
        all.insert(all.end(), c.begin(), c.end());
    // First occurrences, by canonical key: the queries the pool solves.
    uint64_t fp = designFingerprint(fd.d);
    std::map<std::string, size_t> first_of;
    std::vector<size_t> first(all.size());
    for (size_t i = 0; i < all.size(); i++)
        first[i] = first_of
                       .try_emplace(makeQueryKeyBytes(fp, cfg, all[i].seq,
                                                      all[i].assumes,
                                                      all[i].fixedFrame),
                                    i)
                       .first->second;

    auto run = [](Engine &e, const Query &q) {
        return q.fixedFrame >= 0
                   ? e.coverAt(q.seq, q.assumes,
                               static_cast<unsigned>(q.fixedFrame))
                   : e.cover(q.seq, q.assumes);
    };
    Engine eng(fd.d, cfg);
    std::vector<CoverResult> direct(all.size());
    size_t solved = 0, undetermined = 0, history_sensitive = 0;
    for (size_t i = 0; i < all.size(); i++) {
        if (first[i] != i)
            continue;
        direct[i] = run(eng, all[i]);
        solved++;
        undetermined += direct[i].outcome == Outcome::Undetermined;
        Engine cold(fd.d, cfg);
        history_sensitive += run(cold, all[i]).outcome != direct[i].outcome;
    }
    // The budget binds, and a query's verdict on a cold engine differs
    // from its verdict after the queries before it.
    EXPECT_GT(undetermined, 0u);
    EXPECT_LT(undetermined, solved);
    EXPECT_GT(history_sensitive, 0u);

    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        EnginePool pool(fd.d, cfg, ExecConfig{.jobs = jobs});
        std::vector<CoverResult> got;
        for (const auto &c : calls) {
            if (c.size() == 1) {
                got.push_back(pool.eval(c.front()));
            } else {
                std::vector<CoverResult> rs = pool.evalBatch(c);
                got.insert(got.end(), rs.begin(), rs.end());
            }
        }
        ASSERT_EQ(got.size(), all.size());
        for (size_t i = 0; i < all.size(); i++) {
            SCOPED_TRACE("query " + std::to_string(i));
            expectSameResult(direct[first[i]], got[i], fd.prod);
        }
        PoolStats s = pool.stats();
        EXPECT_EQ(s.lanesBuilt, 1u);
        EXPECT_EQ(s.engine.queries, solved);
        EXPECT_EQ(s.cache.misses, solved);
        EXPECT_EQ(s.cache.hits, all.size() - solved);
        EXPECT_EQ(s.sat.conflicts, eng.satStats().conflicts);
        EXPECT_EQ(s.sat.decisions, eng.satStats().decisions);
        EXPECT_EQ(s.sat.propagations, eng.satStats().propagations);
    }
}

TEST(Exec, BudgetExhaustionYieldsUndeterminedEndToEnd)
{
    FactorDesign fd;
    EngineConfig cfg;
    cfg.bound = 3;
    cfg.budget.maxConflicts = 1;

    // Direct engine: the budget-limited cover is Undetermined and tallied.
    Engine eng(fd.d, cfg);
    CoverResult direct =
        eng.cover(pEq(fd.prod, FactorDesign::kSemiprime), {});
    EXPECT_EQ(direct.outcome, Outcome::Undetermined);
    EXPECT_EQ(eng.stats().queries, 1u);
    EXPECT_EQ(eng.stats().undetermined, 1u);

    // Through the pool: same verdict, tallied in the merged EngineStats,
    // and the memoized verdict replays as a cache hit (the budget is part
    // of the cache key, so it cannot leak into differently-budgeted runs).
    EnginePool pool(fd.d, cfg, ExecConfig{.jobs = 2});
    Query q{pEq(fd.prod, FactorDesign::kSemiprime), {}, -1};
    CoverResult pooled = pool.eval(q);
    EXPECT_EQ(pooled.outcome, Outcome::Undetermined);
    CoverResult cached = pool.eval(q);
    EXPECT_EQ(cached.outcome, Outcome::Undetermined);
    PoolStats s = pool.stats();
    EXPECT_EQ(s.engine.queries, 1u);
    EXPECT_EQ(s.engine.undetermined, 1u);
    EXPECT_EQ(s.cache.hits, 1u);

    // A roomier budget is a different key and gets its own evaluation.
    EngineConfig roomy = cfg;
    roomy.budget.maxConflicts = 2'000'000;
    EnginePool pool2(fd.d, roomy, ExecConfig{.jobs = 2});
    CoverResult solved = pool2.eval(q);
    EXPECT_EQ(solved.outcome, Outcome::Reachable);
}

TEST(Exec, ParallelForRunsEveryIndexExactlyOnce)
{
    CounterDesign cd;
    EnginePool pool(cd.d, counterCfg(), ExecConfig{.jobs = 4});
    std::vector<std::atomic<int>> seen(257);
    for (auto &s : seen)
        s = 0;
    pool.parallelFor(seen.size(), [&](size_t i) { seen[i]++; });
    for (size_t i = 0; i < seen.size(); i++)
        EXPECT_EQ(seen[i].load(), 1) << i;
}

TEST(Exec, DigestCollisionIsDetectedNotAliased)
{
    // Regression for the cache-collision latent defect: the 128-bit
    // QueryKey is a hash digest, so two distinct queries CAN land on the
    // same key. Force that case by hand — same QueryKey, different
    // canonical bytes — and require the cache to keep the two results
    // separate, serve each probe its own verdict, and count the
    // collision, instead of silently aliasing one query's verdict to the
    // other.
    QueryCache cache;
    QueryKey key{0x1234, 0x5678};
    bmc::CoverResult reach;
    reach.outcome = Outcome::Reachable;
    bmc::CoverResult unreach;
    unreach.outcome = Outcome::Unreachable;

    cache.put(key, "query-A", reach);
    CachedResult out;
    // Probe with different bytes under the same digest: a miss, counted
    // as a collision — NOT query A's verdict.
    EXPECT_FALSE(cache.get(key, "query-B", &out));
    EXPECT_EQ(cache.stats().collisions, 1u);

    // Publish B under the same digest; both now coexist and resolve to
    // their own verdicts.
    cache.put(key, "query-B", unreach);
    ASSERT_TRUE(cache.get(key, "query-A", &out));
    EXPECT_EQ(out.outcome, Outcome::Reachable);
    ASSERT_TRUE(cache.get(key, "query-B", &out));
    EXPECT_EQ(out.outcome, Outcome::Unreachable);
    EXPECT_EQ(cache.stats().entries, 2u);

    // Re-publishing an existing entry is a no-op, not a new collision.
    cache.put(key, "query-A", reach);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(Exec, KeyBytesCanonicalization)
{
    // The canonical bytes must be insensitive to exactly what the digest
    // is insensitive to (assume order, DAG sharing) and sensitive to
    // everything else.
    CounterDesign cd;
    EngineConfig cfg = counterCfg();
    uint64_t fp = designFingerprint(cd.d);
    auto a1 = pEq(cd.cnt, 1);
    auto a2 = pEq(cd.cnt, 2);
    std::string fwd = makeQueryKeyBytes(fp, cfg, pTrue(), {a1, a2}, -1);
    std::string rev = makeQueryKeyBytes(fp, cfg, pTrue(), {a2, a1}, -1);
    EXPECT_EQ(fwd, rev);

    // Structurally identical expressions with different node sharing
    // serialize identically (tree expansion).
    auto shared = pAnd(a1, a1);
    auto unshared = pAnd(pEq(cd.cnt, 1), pEq(cd.cnt, 1));
    EXPECT_EQ(makeQueryKeyBytes(fp, cfg, shared, {}, -1),
              makeQueryKeyBytes(fp, cfg, unshared, {}, -1));

    // Different queries differ.
    EXPECT_NE(makeQueryKeyBytes(fp, cfg, a1, {}, -1),
              makeQueryKeyBytes(fp, cfg, a2, {}, -1));
    EXPECT_NE(makeQueryKeyBytes(fp, cfg, a1, {}, -1),
              makeQueryKeyBytes(fp, cfg, a1, {}, 0));
    EngineConfig other = cfg;
    other.budget.maxConflicts = 1;
    EXPECT_NE(makeQueryKeyBytes(fp, cfg, a1, {}, -1),
              makeQueryKeyBytes(fp, other, a1, {}, -1));
}

TEST(Exec, QueryKeyLayoutIsStable)
{
    // Verdict stores on disk are addressed by these exact bytes and
    // digests, so stores written by one build keep hitting in the next
    // only while both stay fixed. Any change to the key layout must show
    // up here as a deliberate edit of these literals.
    CounterDesign cd;
    EngineConfig cfg = counterCfg();
    uint64_t fp = designFingerprint(cd.d);
    ExprRef seq = pEq(cd.cnt, 7);
    std::vector<ExprRef> assumes{pNot(pEq(cd.cnt, 3))};
    EXPECT_EQ(makeQueryKeyBytes(fp, cfg, seq, assumes, -1),
              "8460344195918617339|10|0|0|1|-1|0|0|0|(B0,7,0)|"
              "(D4294967295,0,0(B0,3,0))");
    QueryKey k = makeQueryKey(fp, cfg, seq, assumes, -1);
    EXPECT_EQ(k.lo, 0x375fdeab0426b5f9ULL);
    EXPECT_EQ(k.hi, 0x06bb73fdeacd4735ULL);
}
