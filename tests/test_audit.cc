/**
 * @file
 * Tests for the verdict-audit layer (EngineConfig::auditReplay /
 * auditProof): reachable verdicts are replay-validated and unreachable
 * verdicts DRAT-closed with zero mismatches on healthy designs; audited
 * and unaudited runs return identical verdicts (including across pools
 * under a SAT budget); trivially-unreachable verdicts stay in the
 * trusted base; and the replay oracle rejects seeded witness defects.
 */

#include <gtest/gtest.h>

#include "exec/engine_pool.hh"
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

/** Input-driven accumulator: reachable covers with non-trivial witnesses. */
struct AccDesign
{
    Design d{"acc"};
    SigId in, acc;

    AccDesign()
    {
        Builder b(d);
        Sig i = b.input("in", 4);
        RegSig a = b.regh("acc", 8, 0);
        b.assign(a, a.q + i.zext(8));
        b.finalize();
        in = i.id;
        acc = a.q.id;
    }
};

/** Registered 16x16 multiplier: hard under a small conflict budget. */
struct FactorDesign
{
    Design d{"factor"};
    SigId prod;

    FactorDesign()
    {
        Builder b(d);
        Sig a = b.input("a", 16);
        Sig x = b.input("b", 16);
        RegSig p = b.regh("prod", 16, 0);
        b.assign(p, a * x);
        b.finalize();
        prod = p.q.id;
    }
};

EngineConfig
auditedCfg(unsigned bound)
{
    EngineConfig cfg;
    cfg.bound = bound;
    cfg.auditReplay = true;
    cfg.auditProof = true;
    return cfg;
}

} // namespace

TEST(Audit, ReachableVerdictIsReplayAudited)
{
    CounterDesign cd;
    Engine eng(cd.d, auditedCfg(10));
    CoverResult r = eng.cover(pEq(cd.cnt, 7), {});
    ASSERT_EQ(r.outcome, Outcome::Reachable);
    EXPECT_TRUE(r.audit.replayed);
    EXPECT_FALSE(r.audit.proofChecked);
    EXPECT_FALSE(r.audit.mismatch);
    EXPECT_EQ(r.witness.matchFrame, 7u);
    EXPECT_EQ(eng.stats().auditReplayed, 1u);
    EXPECT_EQ(eng.stats().auditMismatches, 0u);
}

TEST(Audit, UnreachableVerdictIsProofChecked)
{
    // The accumulator's inputs are free, so this unreachability is a
    // genuine solver-backed UNSAT (a closed design would constant-fold
    // and never reach the solver): 3 additions of at most 15 cannot
    // produce 50 within bound 4.
    AccDesign ad;
    Engine eng(ad.d, auditedCfg(4));
    CoverResult r = eng.cover(pEq(ad.acc, 50), {});
    ASSERT_EQ(r.outcome, Outcome::Unreachable);
    EXPECT_TRUE(r.audit.proofChecked);
    EXPECT_FALSE(r.audit.replayed);
    EXPECT_FALSE(r.audit.mismatch);
    EXPECT_EQ(eng.stats().auditProofChecked, 1u);
    EXPECT_EQ(eng.stats().auditMismatches, 0u);
}

TEST(Audit, TriviallyUnreachableStaysInTrustedBase)
{
    CounterDesign cd;
    Engine eng(cd.d, auditedCfg(4));
    // Contradictory assumes fold to constant-false before any solver
    // call; there is no SAT evidence to audit (DESIGN.md §3g).
    auto contradiction = pAnd(pEq(cd.cnt, 0), pNot(pEq(cd.cnt, 0)));
    CoverResult r = eng.cover(pTrue(), {contradiction});
    ASSERT_EQ(r.outcome, Outcome::Unreachable);
    EXPECT_FALSE(r.audit.proofChecked);
    EXPECT_FALSE(r.audit.mismatch);
    EXPECT_EQ(eng.stats().auditProofChecked, 0u);
}

TEST(Audit, ReplayOracleRejectsCorruptedWitness)
{
    AccDesign ad;
    Engine eng(ad.d, auditedCfg(6));
    auto seq = pEq(ad.acc, 45);
    CoverResult r = eng.cover(seq, {});
    ASSERT_EQ(r.outcome, Outcome::Reachable);
    ASSERT_FALSE(r.audit.mismatch);

    // The intact witness passes the standalone oracle.
    ReplayCheck good = replayWitness(ad.d, r.witness.inputs, seq, {}, 6);
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(good.matchFrame, r.witness.matchFrame);

    // Seeded defect: zero every stimulus frame — the accumulator stays 0
    // and the cover can no longer fire. The oracle must say so.
    std::vector<InputMap> bad = r.witness.inputs;
    for (auto &frame : bad)
        frame[ad.in] = 0;
    ReplayCheck rc = replayWitness(ad.d, bad, seq, {}, 6);
    EXPECT_FALSE(rc.ok());
    EXPECT_FALSE(rc.matched);

    // Seeded defect: a witness whose inputs violate an assume. in==2
    // every cycle satisfies the cover acc==8 at frame 4 but breaks the
    // assume in!=2; the oracle must flag the assume, not the cover.
    std::vector<InputMap> two(6);
    for (auto &frame : two)
        frame[ad.in] = 2;
    ReplayCheck rc2 =
        replayWitness(ad.d, two, pEq(ad.acc, 8), {pNot(pEq(ad.in, 2))}, 6);
    EXPECT_TRUE(rc2.matched);
    EXPECT_FALSE(rc2.assumesHold);
    EXPECT_FALSE(rc2.ok());
}

TEST(Audit, AuditedVerdictsMatchUnaudited)
{
    // The audit must be an observer: identical verdicts, witnesses, and
    // match frames with auditing on and off — including the budget-
    // limited Undetermined path, whose determinism the single-point
    // budget check in the solver guarantees.
    FactorDesign fd;
    EngineConfig plain;
    plain.bound = 2;
    plain.budget.maxConflicts = 30;
    EngineConfig audited = plain;
    audited.auditReplay = true;
    audited.auditProof = true;

    std::vector<prop::ExprRef> seqs = {
        pEq(fd.prod, 60491), // 251*241 semiprime: hard, likely budgeted
        pEq(fd.prod, 12),    // easy reachable
    };
    for (const auto &seq : seqs) {
        Engine e1(fd.d, plain);
        Engine e2(fd.d, audited);
        CoverResult r1 = e1.cover(seq, {});
        CoverResult r2 = e2.cover(seq, {});
        ASSERT_EQ(r1.outcome, r2.outcome);
        EXPECT_FALSE(r2.audit.mismatch);
        if (r1.outcome == Outcome::Reachable) {
            EXPECT_EQ(r1.witness.matchFrame, r2.witness.matchFrame);
            EXPECT_EQ(r1.witness.inputs, r2.witness.inputs);
        }
    }
}

TEST(Audit, PoolVerdictsJobsInvariantUnderAuditAndBudget)
{
    // Two pools with auditing and a tight budget: same verdicts, zero
    // mismatches, and the audit tallies themselves identical (every
    // query runs on the pool's one engine in submission order).
    FactorDesign fd;
    EngineConfig cfg;
    cfg.bound = 2;
    cfg.budget.maxConflicts = 25;
    cfg.auditReplay = true;
    cfg.auditProof = true;

    EnginePool pa(fd.d, cfg);
    EnginePool pb(fd.d, cfg);
    std::vector<CoverResult> ra, rb;
    for (uint64_t v : {60491ULL, 35ULL, 6ULL, 59989ULL, 12ULL, 143ULL}) {
        ra.push_back(pa.eval(pEq(fd.prod, v), {}));
        rb.push_back(pb.eval(pEq(fd.prod, v), {}));
    }
    for (size_t i = 0; i < ra.size(); i++) {
        EXPECT_EQ(ra[i].outcome, rb[i].outcome) << "query " << i;
        EXPECT_FALSE(ra[i].audit.mismatch);
        EXPECT_FALSE(rb[i].audit.mismatch);
    }
    PoolStats sa = pa.stats(), sb = pb.stats();
    EXPECT_EQ(sa.engine.auditReplayed, sb.engine.auditReplayed);
    EXPECT_EQ(sa.engine.auditProofChecked, sb.engine.auditProofChecked);
    EXPECT_EQ(sa.engine.auditMismatches, 0u);
    EXPECT_EQ(sb.engine.auditMismatches, 0u);
    // Every solver-backed verdict in this run was audited one way or
    // the other.
    EXPECT_EQ(sa.engine.auditReplayed + sa.engine.auditProofChecked,
              sa.engine.reachable + sa.engine.unreachable);
}

TEST(Audit, CacheHitsDoNotReAudit)
{
    CounterDesign cd;
    EnginePool pool(cd.d, auditedCfg(10));
    CoverResult first = pool.eval(pEq(cd.cnt, 7), {});
    ASSERT_EQ(first.outcome, Outcome::Reachable);
    CoverResult again = pool.eval(pEq(cd.cnt, 7), {});
    EXPECT_EQ(again.outcome, Outcome::Reachable);
    PoolStats s = pool.stats();
    // One solver evaluation, one audit; the hit replays the memoized
    // (already-audited) result.
    EXPECT_EQ(s.engine.queries, 1u);
    EXPECT_EQ(s.engine.auditReplayed, 1u);
    EXPECT_EQ(s.cache.hits, 1u);
}
