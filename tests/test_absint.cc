/**
 * @file
 * Tests for the abstract-interpretation layer (DESIGN.md §3i): AbsVal
 * transfer functions and the fixpoint's soundness against simulation,
 * FSM reachable-state enumeration, the engine's static cover evaluator
 * and pruning (verdict identity with and without, audited and not), the
 * absint lint rules over seeded defects, known-bits tape folding, and
 * the IFT soundness lint on the mcva variant configurations.
 */

#include <gtest/gtest.h>

#include <random>

#include "analysis/absint.hh"
#include "analysis/fsmreach.hh"
#include "analysis/lint.hh"
#include "bmc/engine.hh"
#include "designs/mcva.hh"
#include "designs/tiny3.hh"
#include "exec/engine_pool.hh"
#include "report/report.hh"
#include "rtl2mupath/synth.hh"
#include "rtlir/builder.hh"
#include "sim/simulator.hh"

using namespace rmp;
using namespace rmp::analysis;

namespace
{

size_t
countRule(const LintReport &rep, Rule r)
{
    size_t n = 0;
    for (const auto &di : rep.diags)
        if (di.rule == r)
            n++;
    return n;
}

/**
 * A small netlist with facts of every flavor: a stuck register (r0 <- r0,
 * reset 7), a 2-bit FSM cycling 0 -> 1 -> 2 -> 0 (3 unreachable), a free
 * counter, and observers of each.
 */
struct FactsRig
{
    Design d{"facts_rig"};
    SigId stuck, fsm, ctr, in, hit_stuck, hit_dead, hit_ctr;

    FactsRig()
    {
        Builder b(d);
        Sig x = b.input("x", 8);
        RegSig r0 = b.regh("stuck", 8, 7);
        b.assign(r0, r0.q); // holds its reset value forever
        RegSig st = b.regh("fsm", 2);
        // 0->1->2->0; valuation 3 is never produced.
        b.assign(st, b.mux(st.q == b.lit(2, 2), b.lit(2, 0),
                           st.q + b.lit(2, 1)));
        RegSig c = b.regh("ctr", 8);
        b.assign(c, c.q + x);
        Sig hs = b.named("hit_stuck", r0.q == b.lit(8, 7));
        Sig hd = b.named("hit_dead", st.q == b.lit(2, 3));
        Sig hc = b.named("hit_ctr", c.q == b.lit(8, 200));
        b.finalize();
        stuck = r0.q.id;
        fsm = st.q.id;
        ctr = c.q.id;
        in = x.id;
        hit_stuck = hs.id;
        hit_dead = hd.id;
        hit_ctr = hc.id;
    }
};

} // namespace

// ------------------------------------------------------------- absint --

TEST(Absint, StuckRegisterIsProvenConstant)
{
    FactsRig t;
    AbsFacts f = absInterpret(t.d);
    ASSERT_EQ(f.val.size(), t.d.numCells());
    const AbsVal &v = f.of(t.stuck);
    EXPECT_TRUE(v.known(0xFF));
    EXPECT_EQ(v.cval(), 7u);
    // ...and the fact propagates through the comparator.
    EXPECT_TRUE(f.of(t.hit_stuck).known(1));
    EXPECT_EQ(f.of(t.hit_stuck).cval(), 1u);
    // The free counter is unknown; the input is top.
    EXPECT_FALSE(f.of(t.ctr).known(0xFF));
    EXPECT_FALSE(f.of(t.in).known(0xFF));
    EXPECT_GT(f.bitsKnown, 0u);
    EXPECT_GT(f.bitsTotal, f.bitsKnown);
    EXPECT_NE(f.fingerprint, 0u);
}

TEST(Absint, FactsAdmitEverySimulatedValue)
{
    // Soundness: every value any cell takes on a random run from reset
    // must be admitted by its fixpoint abstraction.
    FactsRig t;
    AbsFacts f = absInterpret(t.d);
    Simulator sim(t.d);
    std::mt19937_64 rng(11);
    for (int cyc = 0; cyc < 64; cyc++)
        sim.step({{t.in, rng() & 0xFF}});
    const SimTrace &tr = sim.trace();
    for (size_t cyc = 0; cyc < tr.numCycles(); cyc++)
        for (SigId s = 0; s < t.d.numCells(); s++)
            EXPECT_TRUE(f.of(s).admits(tr.value(cyc, s)))
                << "cell " << s << " cycle " << cyc << " value "
                << tr.value(cyc, s);
}

TEST(Absint, JoinOnlyLosesKnowledge)
{
    AbsVal a = AbsVal::constant(5, 0xFF);
    AbsVal b = AbsVal::constant(9, 0xFF);
    AbsVal j = joinAbs(a, b, 0xFF);
    EXPECT_TRUE(j.admits(5));
    EXPECT_TRUE(j.admits(9));
    EXPECT_FALSE(j.admits(2)); // 5|9 vs 5&9 pin bits 5 and 9 share
    EXPECT_EQ(j.set, (std::vector<uint64_t>{5, 9}));
    AbsVal top = AbsVal::top(0xFF);
    AbsVal jt = joinAbs(j, top, 0xFF);
    EXPECT_TRUE(jt.admits(0xAB));
}

TEST(Absint, MuxSelectFactsPinConstantSelects)
{
    Design d("muxsel");
    Builder b(d);
    Sig x = b.input("x", 4);
    Sig y = b.input("y", 4);
    RegSig one = b.regh("one", 1, 1);
    b.assign(one, one.q); // constant-1 select
    Sig m = b.named("m", b.mux(one.q, x, y));
    Sig free_m = b.named("free_m", b.mux(x.bit(0), x, y));
    b.finalize();
    AbsFacts f = absInterpret(d);
    std::vector<int8_t> sel = muxSelectFacts(d, f);
    ASSERT_EQ(sel.size(), d.numCells());
    EXPECT_EQ(sel[m.id], 1);
    EXPECT_EQ(sel[free_m.id], -1);
    EXPECT_EQ(sel[x.id], -1); // non-Mux cells are always -1
}

// ----------------------------------------------------------- fsmreach --

TEST(FsmReach, EnumeratesExactStateSet)
{
    FactsRig t;
    AbsFacts f = absInterpret(t.d);
    // Globally, the FSM register's join is coarse (could be anything).
    std::vector<FsmReachResult> rr = fsmReachability(t.d, {t.fsm}, f);
    ASSERT_EQ(rr.size(), 1u);
    EXPECT_EQ(rr[0].reg, t.fsm);
    EXPECT_TRUE(rr[0].exact);
    EXPECT_EQ(rr[0].states, (std::vector<uint64_t>{0, 1, 2}));
    // The refinement lands in the facts: state 3 is refuted, so the
    // dead-state comparator is proven false.
    EXPECT_FALSE(f.of(t.fsm).admits(3));
    EXPECT_TRUE(f.of(t.hit_dead).known(1));
    EXPECT_EQ(f.of(t.hit_dead).cval(), 0u);
}

TEST(FsmReach, StaticFactsConvenienceMatchesManualPipeline)
{
    FactsRig t;
    AbsFacts manual = absInterpret(t.d);
    fsmReachability(t.d, {t.fsm}, manual);
    AbsFacts conv = staticFacts(t.d, {t.fsm});
    EXPECT_EQ(conv.fingerprint, manual.fingerprint);
    EXPECT_EQ(conv.bitsKnown, manual.bitsKnown);
}

// ---------------------------------------------------------- staticEval --

TEST(StaticEval, TernaryVerdictsMatchTheFacts)
{
    FactsRig t;
    AbsFacts f = staticFacts(t.d, {t.fsm});
    auto ev = [&](const prop::ExprRef &e) {
        return bmc::staticEval(t.d, f, e);
    };
    EXPECT_EQ(ev(prop::pEq(t.stuck, 7)), bmc::StaticTern::True);
    EXPECT_EQ(ev(prop::pEq(t.stuck, 5)), bmc::StaticTern::False);
    EXPECT_EQ(ev(prop::pEq(t.fsm, 3)), bmc::StaticTern::False);
    EXPECT_EQ(ev(prop::pEq(t.ctr, 200)), bmc::StaticTern::Unknown);
    // Kleene connectives.
    EXPECT_EQ(ev(prop::pNot(prop::pEq(t.stuck, 7))),
              bmc::StaticTern::False);
    EXPECT_EQ(ev(prop::pAnd(prop::pEq(t.ctr, 1), prop::pEq(t.fsm, 3))),
              bmc::StaticTern::False);
    EXPECT_EQ(ev(prop::pOr(prop::pEq(t.ctr, 1), prop::pEq(t.stuck, 7))),
              bmc::StaticTern::True);
    // Bounded-semantics guard: Delay propagates False but NEVER True
    // (a match can be cut off by the bound), so Not(Delay(True, True))
    // must stay Unknown rather than becoming a false prune.
    prop::ExprRef dly =
        prop::pDelay(prop::pEq(t.stuck, 7), 1, prop::pEq(t.stuck, 7));
    EXPECT_EQ(ev(dly), bmc::StaticTern::Unknown);
    EXPECT_EQ(ev(prop::pDelay(prop::pEq(t.stuck, 5), 1,
                              prop::pEq(t.stuck, 7))),
              bmc::StaticTern::False);
    EXPECT_EQ(ev(prop::pNot(dly)), bmc::StaticTern::Unknown);
}

// ------------------------------------------------------- static prune --

TEST(StaticPrune, EngineDischargesImpossibleCoversWithoutSolving)
{
    FactsRig t;
    bmc::EngineConfig cfg;
    cfg.bound = 8;
    cfg.staticPrune = true;
    bmc::Engine eng(t.d, cfg);

    // Statically-false cover: no solver query, verdict Unreachable.
    bmc::CoverResult r = eng.cover(prop::pEq(t.stuck, 5), {});
    EXPECT_EQ(r.outcome, bmc::Outcome::Unreachable);
    EXPECT_EQ(eng.stats().staticPruned, 1u);
    EXPECT_EQ(eng.stats().queries, 1u);

    // Statically-false assume: the query is vacuous.
    bmc::CoverResult rv =
        eng.cover(prop::pEq(t.ctr, 3), {prop::pEq(t.stuck, 5)});
    EXPECT_EQ(rv.outcome, bmc::Outcome::Unreachable);
    EXPECT_EQ(eng.stats().staticPruned, 2u);

    // A cover the facts cannot refute still goes to the solver and is
    // genuinely reachable.
    bmc::CoverResult rr = eng.cover(prop::pEq(t.ctr, 200), {});
    EXPECT_EQ(rr.outcome, bmc::Outcome::Reachable);
    EXPECT_EQ(eng.stats().staticPruned, 2u);
}

TEST(StaticPrune, VerdictsIdenticalWithAndWithoutPruning)
{
    FactsRig t;
    std::vector<exec::Query> qs;
    qs.push_back({prop::pEq(t.stuck, 5), {}, -1});           // pruned
    qs.push_back({prop::pEq(t.fsm, 3), {}, -1});             // solver-only
    qs.push_back({prop::pEq(t.ctr, 200), {}, -1});           // reachable
    qs.push_back({prop::pEq(t.ctr, 3), {prop::pEq(t.stuck, 5)}, -1});
    qs.push_back({prop::pBit(t.hit_stuck), {}, 0});

    bmc::EngineConfig on;
    on.bound = 8;
    on.staticPrune = true;
    on.staticFacts =
        std::make_shared<const AbsFacts>(staticFacts(t.d, {t.fsm}));
    bmc::EngineConfig off;
    off.bound = 8;

    exec::ExecConfig xc{1, 2};
    exec::EnginePool with(t.d, on, xc);
    exec::EnginePool without(t.d, off, xc);
    auto ra = with.evalBatch(qs);
    auto rb = without.evalBatch(qs);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); i++)
        EXPECT_EQ(ra[i].outcome, rb[i].outcome) << "query " << i;
    exec::PoolStats ps = with.stats();
    EXPECT_GE(ps.engine.staticPruned, 2u);
    EXPECT_EQ(without.stats().engine.staticPruned, 0u);
}

TEST(StaticPrune, AuditedPrunesReproveWithZeroMismatches)
{
    FactsRig t;
    bmc::EngineConfig cfg;
    cfg.bound = 8;
    cfg.staticPrune = true;
    cfg.staticFacts =
        std::make_shared<const AbsFacts>(staticFacts(t.d, {t.fsm}));
    cfg.auditProof = true;
    cfg.auditReplay = true;
    bmc::Engine eng(t.d, cfg);
    bmc::CoverResult r = eng.cover(prop::pEq(t.stuck, 5), {});
    EXPECT_EQ(r.outcome, bmc::Outcome::Unreachable);
    bmc::CoverResult r2 = eng.cover(prop::pEq(t.fsm, 3), {});
    EXPECT_EQ(r2.outcome, bmc::Outcome::Unreachable);
    // The solver independently re-proved both statically-pruned covers.
    EXPECT_EQ(eng.stats().staticPruned, 2u);
    EXPECT_EQ(eng.stats().auditMismatches, 0u);
}

TEST(StaticPrune, Tiny3SynthesisIdenticalWithAndWithout)
{
    designs::Harness hx(designs::buildTiny3());
    uhb::InstrId add = hx.duv().instrId("ADD");

    r2m::SynthesisConfig on;
    on.jobs = 1;
    on.staticPrune = true;
    r2m::MuPathSynthesizer a(hx, on);
    uhb::InstrPaths pa = a.synthesize(add);

    r2m::SynthesisConfig off = on;
    off.staticPrune = false;
    r2m::MuPathSynthesizer b(hx, off);
    uhb::InstrPaths pb = b.synthesize(add);

    EXPECT_EQ(report::renderInstrPaths(hx, pa),
              report::renderInstrPaths(hx, pb));
    EXPECT_EQ(report::renderDecisions(hx, pa),
              report::renderDecisions(hx, pb));
}

// ------------------------------------------------- absint lint rules --

TEST(LintAbsint, DetectsConstantRegisterAndUnreachableFsmState)
{
    FactsRig t;
    LintConfig cfg;
    cfg.controlRegs = {t.fsm};
    LintReport rep = lint(t.d, cfg);
    EXPECT_EQ(rep.errors(), 0u) << rep.render(t.d);
    EXPECT_GE(countRule(rep, Rule::ConstantRegister), 1u)
        << rep.render(t.d);
    ASSERT_EQ(countRule(rep, Rule::UnreachableFsmState), 1u)
        << rep.render(t.d);
    for (const auto &di : rep.diags) {
        if (di.rule == Rule::UnreachableFsmState) {
            EXPECT_EQ(di.sig, t.fsm);
            EXPECT_NE(di.message.find("3"), std::string::npos);
        }
    }
}

TEST(LintAbsint, DetectsDeadMuxArmAndTruncatedAssignment)
{
    Design d("deadarm");
    Builder b(d);
    Sig x = b.input("x", 4);
    Sig y = b.input("y", 4);
    RegSig one = b.regh("one", 1, 1);
    b.assign(one, one.q);
    Sig m = b.named("m", b.mux(one.q, x, y));
    // Slice that drops bits proven 1: wide has 0xF0 set, keep [3:0].
    RegSig wide = b.regh("wide", 8, 0xF5);
    b.assign(wide, wide.q);
    Sig tr = b.named("tr", wide.q.slice(0, 4));
    b.named("use", m + tr);
    b.finalize();
    LintReport rep = lint(d);
    EXPECT_EQ(rep.errors(), 0u) << rep.render(d);
    ASSERT_GE(countRule(rep, Rule::DeadMuxArm), 1u) << rep.render(d);
    ASSERT_GE(countRule(rep, Rule::TruncatedAssignment), 1u)
        << rep.render(d);
    for (const auto &di : rep.diags)
        if (di.rule == Rule::DeadMuxArm)
            EXPECT_EQ(di.sig, m.id);
}

TEST(LintAbsint, SkippedWhenStructurallyBroken)
{
    // A broken netlist (dangling operand) must not run the absint rules
    // (their evaluation assumes a well-formed graph).
    Design d("broken");
    Builder b(d);
    Sig x = b.input("x", 4);
    RegSig r = b.regh("stuck", 4, 3);
    b.assign(r, r.q);
    Sig n = b.named("n", ~x);
    b.finalize();
    const_cast<Cell &>(d.cell(n.id)).args[0] = 9999;
    LintReport rep = lint(d);
    EXPECT_GE(rep.errors(), 1u);
    EXPECT_EQ(countRule(rep, Rule::ConstantRegister), 0u)
        << rep.render(d);
}

TEST(LintAbsint, DetectsUntaintedTaintSink)
{
    // r <- a is the taint source; "clean" observes only input b, so its
    // shadow is statically zero — an untainted sink. "out" observes r
    // and must NOT be flagged.
    Design d("untainted");
    Builder b(d);
    Sig a = b.input("a", 8);
    Sig bb = b.input("b", 8);
    RegSig r = b.regh("r", 8);
    b.assign(r, a);
    Sig out = b.named("out", r.q == b.lit(8, 9));
    Sig clean = b.named("clean", bb == b.lit(8, 5));
    b.finalize();
    ift::IftConfig icfg;
    icfg.taintSources = {r.q.id};
    ift::Instrumented inst = ift::instrument(d, icfg);
    LintReport rep = lintIft(d, inst);
    EXPECT_EQ(rep.errors(), 0u) << rep.render(*inst.design);
    ASSERT_GE(countRule(rep, Rule::UntaintedTaintSink), 1u)
        << rep.render(*inst.design);
    bool clean_flagged = false, out_flagged = false;
    for (const auto &di : rep.diags)
        if (di.rule == Rule::UntaintedTaintSink) {
            clean_flagged |= di.sig == clean.id;
            out_flagged |= di.sig == out.id;
        }
    EXPECT_TRUE(clean_flagged);
    EXPECT_FALSE(out_flagged);
}

// ------------------------------------- IFT lint on the mcva variants --

namespace
{

/** The harness instrumentation (same config the CLI and SynthLC use). */
LintReport
iftLintOf(const designs::Harness &hx)
{
    const uhb::DuvInfo &info = hx.duv();
    ift::IftConfig icfg;
    icfg.taintSources = {info.rs1Reg, info.rs2Reg};
    icfg.blockRegs = info.arfRegs;
    icfg.blockRegs.insert(icfg.blockRegs.end(), info.amemRegs.begin(),
                          info.amemRegs.end());
    icfg.persistentRegs = info.persistentRegs;
    icfg.txmGone = hx.txmGone;
    ift::Instrumented inst = ift::instrument(hx.design(), icfg);
    return lintIft(hx.design(), inst);
}

} // namespace

TEST(LintIftVariants, McvaOperandPackingIsSound)
{
    designs::Harness hx(
        designs::buildMcva({.withOperandPacking = true}));
    LintReport rep = iftLintOf(hx);
    EXPECT_EQ(rep.errors(), 0u) << rep.render(hx.design());
}

TEST(LintIftVariants, McvaZeroSkipMulIsSound)
{
    designs::Harness hx(designs::buildMcva({.withZeroSkipMul = true}));
    LintReport rep = iftLintOf(hx);
    EXPECT_EQ(rep.errors(), 0u) << rep.render(hx.design());
}
