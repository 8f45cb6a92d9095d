/**
 * @file
 * Tests for the evaluation layer (src/exec): engine-pool eval vs. a
 * direct engine, cross-query memoization (hits replay identical
 * results, including witnesses), repeated-query deduplication, one
 * engine per pool answering in submission order, SAT-budget exhaustion
 * surfacing end-to-end as Undetermined, and the process worker pool's
 * parallelFor (every index once, nested calls, width 1 on the caller).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine_pool.hh"
#include "exec/parallel.hh"
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

    EnginePool pool(cd.d, counterCfg());
    CoverResult pooled = pool.eval(pEq(cd.cnt, 7), {});
    expectSameResult(direct, pooled, cd.cnt);
    EXPECT_EQ(pooled.witness.matchFrame, 7u);
}

TEST(Exec, RepeatedQueryHitsCacheAndReplaysWitness)
{
    CounterDesign cd;
    EnginePool pool(cd.d, counterCfg());
    CoverResult first = pool.eval(pEq(cd.cnt, 7), {});
    CoverResult again = pool.eval(pEq(cd.cnt, 7), {});
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
    EnginePool pool(cd.d, counterCfg());
    CoverResult plain = pool.eval(pEq(cd.cnt, 7), {});
    // Same cover under a tautological assume: a different cache key even
    // though the verdict cannot change.
    ExprRef tauto = pOr(pEq(cd.cnt, 7), pNot(pEq(cd.cnt, 7)));
    CoverResult assumed = pool.eval(pEq(cd.cnt, 7), {tauto});
    EXPECT_EQ(plain.outcome, Outcome::Reachable);
    EXPECT_EQ(assumed.outcome, Outcome::Reachable);
    PoolStats s = pool.stats();
    EXPECT_EQ(s.cache.hits, 0u);
    EXPECT_EQ(s.cache.misses, 2u);
    EXPECT_EQ(s.cache.entries, 2u);
    // Same cover pinned to a fixed frame: also a different key (the pool
    // issues only any-frame covers, frame -1).
    uint64_t fp = designFingerprint(cd.d);
    QueryKey any = makeQueryKey(fp, counterCfg(), pEq(cd.cnt, 7), {}, -1);
    QueryKey pinned = makeQueryKey(fp, counterCfg(), pEq(cd.cnt, 7), {}, 7);
    EXPECT_FALSE(any == pinned);
    EXPECT_NE(makeQueryKeyBytes(fp, counterCfg(), pEq(cd.cnt, 7), {}, -1),
              makeQueryKeyBytes(fp, counterCfg(), pEq(cd.cnt, 7), {}, 7));
}

TEST(Exec, BatchDeduplicatesAndPreservesOrder)
{
    CounterDesign cd;
    EnginePool pool(cd.d, counterCfg());
    // Counter values 3..6, then repeats of the first and third query,
    // plus an unreachable one (12 is beyond bound 10).
    std::vector<CoverResult> rs;
    for (unsigned v : {3, 4, 5, 6, 3, 5, 12})
        rs.push_back(pool.eval(pEq(cd.cnt, v), {}));
    for (unsigned v = 0; v < 4; v++) {
        ASSERT_EQ(rs[v].outcome, Outcome::Reachable) << v;
        EXPECT_EQ(rs[v].witness.matchFrame, v + 3);
    }
    expectSameResult(rs[0], rs[4], cd.cnt);
    expectSameResult(rs[2], rs[5], cd.cnt);
    EXPECT_EQ(rs[6].outcome, Outcome::Unreachable);

    PoolStats s = pool.stats();
    EXPECT_EQ(s.engine.queries, 5u); // 4 distinct reachable + 1 unreachable
    EXPECT_EQ(s.cache.hits, 2u);     // the two repeats...
    EXPECT_EQ(s.cache.misses, 5u);   // ...which never count as misses
}

TEST(Exec, PoolBuildsOneUnrolling)
{
    // A pool unrolls the design once, for its one engine, and answers
    // as another pool over the same design does.
    CounterDesign cd;
    auto evalAll = [&](EnginePool &pool) {
        std::vector<CoverResult> rs;
        for (unsigned v = 0; v < 16; v++)
            rs.push_back(pool.eval(pEq(cd.cnt, v), {}));
        return rs;
    };
    EnginePool first(cd.d, counterCfg());
    std::vector<CoverResult> expected = evalAll(first);

    obs::Counter &frames =
        obs::Registry::global().counter("bmc.unroll.frames");
    obs::setEnabled(true);
    uint64_t before = frames.value();
    EnginePool pool(cd.d, counterCfg());
    std::vector<CoverResult> got = evalAll(pool);
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
    // in submission order. Under a tight budget a verdict depends on
    // what the engine solved before, so this holds only if the pool's
    // engine sees exactly the direct engine's query sequence.
    FactorDesign fd;
    EngineConfig cfg;
    cfg.bound = 3;
    cfg.budget.maxConflicts = 10;
    ExprRef nontrivial = pAnd(pNot(pEq(fd.a, 1)), pNot(pEq(fd.b, 1)));
    struct Cover
    {
        ExprRef seq;
        std::vector<ExprRef> assumes;
    };
    auto cover = [&](uint64_t v, bool hard) {
        std::vector<ExprRef> assumes;
        if (hard)
            assumes.push_back(nontrivial);
        return Cover{pEq(fd.prod, v), assumes};
    };
    // Each duplicate repeats a query submitted earlier.
    std::vector<Cover> all = {
        cover(FactorDesign::kSemiprime, true), cover(35, false),
        cover(FactorDesign::kSemiprime, true), cover(59989, true),
        cover(6, false), cover(35, false), cover(143, true),
        cover(59989, true), cover(12, false), cover(65521, true),
        cover(143, true), cover(FactorDesign::kSemiprime, true),
        cover(65521, true),
    };
    // First occurrences, by canonical key: the queries the pool solves.
    uint64_t fp = designFingerprint(fd.d);
    std::map<std::string, size_t> first_of;
    std::vector<size_t> first(all.size());
    for (size_t i = 0; i < all.size(); i++)
        first[i] = first_of
                       .try_emplace(makeQueryKeyBytes(fp, cfg, all[i].seq,
                                                      all[i].assumes, -1),
                                    i)
                       .first->second;

    Engine eng(fd.d, cfg);
    std::vector<CoverResult> direct(all.size());
    size_t solved = 0, undetermined = 0, history_sensitive = 0;
    for (size_t i = 0; i < all.size(); i++) {
        if (first[i] != i)
            continue;
        direct[i] = eng.cover(all[i].seq, all[i].assumes);
        solved++;
        undetermined += direct[i].outcome == Outcome::Undetermined;
        Engine cold(fd.d, cfg);
        history_sensitive +=
            cold.cover(all[i].seq, all[i].assumes).outcome !=
            direct[i].outcome;
    }
    // The budget binds, and a query's verdict on a cold engine differs
    // from its verdict after the queries before it.
    EXPECT_GT(undetermined, 0u);
    EXPECT_LT(undetermined, solved);
    EXPECT_GT(history_sensitive, 0u);

    EnginePool pool(fd.d, cfg);
    std::vector<CoverResult> got;
    for (const Cover &c : all)
        got.push_back(pool.eval(c.seq, c.assumes));
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
    EnginePool pool(fd.d, cfg);
    ExprRef seq = pEq(fd.prod, FactorDesign::kSemiprime);
    CoverResult pooled = pool.eval(seq, {});
    EXPECT_EQ(pooled.outcome, Outcome::Undetermined);
    CoverResult cached = pool.eval(seq, {});
    EXPECT_EQ(cached.outcome, Outcome::Undetermined);
    PoolStats s = pool.stats();
    EXPECT_EQ(s.engine.queries, 1u);
    EXPECT_EQ(s.engine.undetermined, 1u);
    EXPECT_EQ(s.cache.hits, 1u);

    // A roomier budget is a different key and gets its own evaluation.
    EngineConfig roomy = cfg;
    roomy.budget.maxConflicts = 2'000'000;
    EnginePool pool2(fd.d, roomy);
    CoverResult solved = pool2.eval(seq, {});
    EXPECT_EQ(solved.outcome, Outcome::Reachable);
}

TEST(Exec, ParallelForRunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> seen(257);
    for (auto &s : seen)
        s = 0;
    parallelFor(seen.size(), 4, [&](size_t i) { seen[i]++; });
    for (size_t i = 0; i < seen.size(); i++)
        EXPECT_EQ(seen[i].load(), 1) << i;

    // Nested calls: every inner call returns though the outer one may
    // hold every pool thread, because a caller runs indices itself.
    std::vector<std::atomic<int>> nested(8 * 64);
    for (auto &s : nested)
        s = 0;
    parallelFor(8, 4, [&](size_t o) {
        parallelFor(64, 4, [&](size_t i) { nested[o * 64 + i]++; });
    });
    for (size_t i = 0; i < nested.size(); i++)
        EXPECT_EQ(nested[i].load(), 1) << i;

    // Width 1 runs every index on the calling thread.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on(64);
    parallelFor(ran_on.size(), 1,
                [&](size_t i) { ran_on[i] = std::this_thread::get_id(); });
    for (size_t i = 0; i < ran_on.size(); i++)
        EXPECT_EQ(ran_on[i], caller) << i;
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
