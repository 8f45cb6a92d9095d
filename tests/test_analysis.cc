/**
 * @file
 * Tests for src/analysis: the backward sequential cone of influence,
 * the netlist lint over seeded defects (exact rule and severity per
 * defect), and IFT soundness lint.
 */

#include <gtest/gtest.h>

#include "analysis/coi.hh"
#include "analysis/lint.hh"
#include "designs/tiny3.hh"
#include "rtlir/builder.hh"

using namespace rmp;
using namespace rmp::analysis;

namespace
{

/** Mutable access to a finalized design's cell, for seeding defects. */
Cell &
corrupt(Design &d, SigId id)
{
    return const_cast<Cell &>(d.cell(id));
}

/** Count diagnostics matching a rule. */
size_t
countRule(const LintReport &rep, Rule r)
{
    size_t n = 0;
    for (const auto &di : rep.diags)
        if (di.rule == r)
            n++;
    return n;
}

/** First diagnostic of a rule; aborts the test if absent. */
const Diagnostic &
firstOf(const LintReport &rep, Rule r)
{
    for (const auto &di : rep.diags)
        if (di.rule == r)
            return di;
    ADD_FAILURE() << "no diagnostic of rule " << ruleName(r);
    static Diagnostic none;
    return none;
}

/**
 * Two independent register chains: ra accumulates input a, rb xors
 * input b. Each chain is one sequential cone; "hit_a"/"hit_b" observe
 * them separately.
 */
struct TwoChains
{
    Design d{"two_chains"};
    SigId a, b, ra, rb, hit_a, hit_b;

    TwoChains()
    {
        Builder bld(d);
        Sig in_a = bld.input("a", 8);
        Sig in_b = bld.input("b", 8);
        RegSig r_a = bld.regh("ra", 8);
        bld.assign(r_a, r_a.q + in_a);
        RegSig r_b = bld.regh("rb", 8);
        bld.assign(r_b, r_b.q ^ in_b);
        Sig h_a = bld.named("hit_a", r_a.q == bld.lit(8, 42));
        Sig h_b = bld.named("hit_b", r_b.q == bld.lit(8, 7));
        bld.finalize();
        a = in_a.id;
        b = in_b.id;
        ra = r_a.q.id;
        rb = r_b.q.id;
        hit_a = h_a.id;
        hit_b = h_b.id;
    }
};

} // namespace

// ---------------------------------------------------------------- COI --

TEST(Coi, BackwardConeStopsAtIndependentChain)
{
    TwoChains t;
    Cone c = analysis::backwardCone(t.d, {t.hit_a});
    EXPECT_TRUE(c.contains(t.hit_a));
    EXPECT_TRUE(c.contains(t.ra));
    EXPECT_TRUE(c.contains(t.a));
    EXPECT_FALSE(c.contains(t.rb));
    EXPECT_FALSE(c.contains(t.b));
    EXPECT_FALSE(c.contains(t.hit_b));
    EXPECT_LT(c.size(), t.d.numCells());
    // Membership lists agree with the mask.
    for (SigId r : c.regs)
        EXPECT_EQ(t.d.cell(r).op, Op::Reg);
    for (SigId i : c.inputs)
        EXPECT_EQ(t.d.cell(i).op, Op::Input);
}

TEST(Coi, BackwardConeCrossesRegisterBoundaries)
{
    TwoChains t;
    // combFanInSources stops at ra; the sequential cone continues into
    // ra's next-state logic and reaches input a.
    auto comb = t.d.combFanInSources(t.hit_a);
    EXPECT_EQ(comb, (std::vector<SigId>{t.ra}));
    Cone c = analysis::backwardCone(t.d, {t.hit_a});
    EXPECT_TRUE(c.contains(t.a));

    // r0 <- in, r1 <- r0, r2 <- r1: an input behind three registers is
    // still in the cone.
    Design d("pipe");
    Builder b(d);
    Sig in = b.input("in", 4);
    RegSig r0 = b.regh("r0", 4);
    RegSig r1 = b.regh("r1", 4);
    RegSig r2 = b.regh("r2", 4);
    b.assign(r0, in);
    b.assign(r1, r0.q);
    b.assign(r2, r1.q);
    Sig out = b.named("out", r2.q == b.lit(4, 3));
    b.finalize();
    Cone pipe = analysis::backwardCone(d, {out.id});
    for (SigId id : {r2.q.id, r1.q.id, r0.q.id, in.id})
        EXPECT_TRUE(pipe.contains(id)) << id;
}

TEST(Coi, FingerprintIsRootOrderInsensitive)
{
    TwoChains t;
    Cone c1 = analysis::backwardCone(t.d, {t.hit_a, t.hit_b});
    Cone c2 = analysis::backwardCone(t.d, {t.hit_b, t.hit_a});
    EXPECT_EQ(c1.cells, c2.cells);
    Cone ca = analysis::backwardCone(t.d, {t.hit_a});
    EXPECT_NE(ca.cells, c1.cells);
}

// --------------------------------------------------------------- lint --

TEST(Lint, CleanDesignIsClean)
{
    TwoChains t;
    LintReport rep = lint(t.d);
    EXPECT_EQ(rep.errors(), 0u);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.warnings(), 0u) << rep.render(t.d);
}

TEST(Lint, DetectsCombCycle)
{
    Design d("cyc");
    Builder b(d);
    Sig in = b.input("in", 1);
    Sig n1 = b.named("n1", ~in);
    Sig n2 = b.named("n2", ~n1);
    b.finalize();
    // Rewire n1's operand onto n2: a two-cell combinational loop.
    corrupt(d, n1.id).args[0] = n2.id;
    LintReport rep = lint(d);
    ASSERT_EQ(countRule(rep, Rule::CombCycle), 1u) << rep.render(d);
    const Diagnostic &di = firstOf(rep, Rule::CombCycle);
    EXPECT_EQ(di.severity, Severity::Error);
    EXPECT_NE(di.message.find("n1"), std::string::npos);
    EXPECT_NE(di.message.find("n2"), std::string::npos);
    EXPECT_FALSE(rep.clean());
}

TEST(Lint, DetectsCombSelfLoop)
{
    Design d("selfloop");
    Builder b(d);
    Sig in = b.input("in", 1);
    Sig n1 = b.named("n1", ~in);
    b.finalize();
    corrupt(d, n1.id).args[0] = n1.id;
    LintReport rep = lint(d);
    EXPECT_EQ(countRule(rep, Rule::CombCycle), 1u) << rep.render(d);
    EXPECT_EQ(firstOf(rep, Rule::CombCycle).sig, n1.id);
}

TEST(Lint, DetectsUndrivenRegister)
{
    Design d("undriven");
    d.addInput("in", 4);
    SigId r = d.addReg("r", BitVec(4, 0));
    // connectRegNext(r, ...) never called.
    LintReport rep = lint(d);
    ASSERT_EQ(countRule(rep, Rule::UndrivenReg), 1u) << rep.render(d);
    const Diagnostic &di = firstOf(rep, Rule::UndrivenReg);
    EXPECT_EQ(di.severity, Severity::Error);
    EXPECT_EQ(di.sig, r);
}

TEST(Lint, DetectsWidthMismatch)
{
    Design d("widths");
    Builder b(d);
    Sig x = b.input("x", 8);
    Sig y = b.input("y", 8);
    Sig s = b.named("s", x + y);
    b.finalize();
    corrupt(d, s.id).width = 4; // add of two 8-bit operands
    LintReport rep = lint(d);
    ASSERT_EQ(countRule(rep, Rule::WidthMismatch), 1u) << rep.render(d);
    const Diagnostic &di = firstOf(rep, Rule::WidthMismatch);
    EXPECT_EQ(di.severity, Severity::Error);
    EXPECT_EQ(di.sig, s.id);
}

TEST(Lint, DetectsDanglingOperand)
{
    Design d("dangle");
    Builder b(d);
    Sig x = b.input("x", 1);
    Sig n = b.named("n", ~x);
    b.finalize();
    corrupt(d, n.id).args[0] = 9999; // beyond the design
    LintReport rep = lint(d);
    ASSERT_EQ(countRule(rep, Rule::DanglingOperand), 1u) << rep.render(d);
    EXPECT_EQ(firstOf(rep, Rule::DanglingOperand).severity,
              Severity::Error);
}

TEST(Lint, DetectsDuplicateName)
{
    Design d("dupes");
    Builder b(d);
    Sig x = b.input("x", 1);
    Sig n1 = b.named("w", ~x);
    Sig n2 = b.named("other", ~n1);
    b.finalize();
    corrupt(d, n2.id).name = "w";
    LintReport rep = lint(d);
    ASSERT_EQ(countRule(rep, Rule::DuplicateName), 1u) << rep.render(d);
    const Diagnostic &di = firstOf(rep, Rule::DuplicateName);
    EXPECT_EQ(di.severity, Severity::Error);
    EXPECT_EQ(di.sig, n2.id);
}

TEST(Lint, DetectsDeadCellAndNeverReadReg)
{
    Design d("dead");
    Builder b(d);
    Sig x = b.input("x", 4);
    RegSig live = b.regh("live", 4);
    b.assign(live, x);
    b.named("out", live.q == b.lit(4, 1));
    // An unnamed comb cell and an unnamed register nothing observes.
    Sig orphan = ~x.bit(0);
    SigId orphan_reg = d.addReg("", BitVec(1, 0));
    d.connectRegNext(orphan_reg, orphan.id);
    b.finalize();
    LintReport rep = lint(d);
    EXPECT_EQ(rep.errors(), 0u) << rep.render(d);
    ASSERT_GE(countRule(rep, Rule::DeadCell), 1u) << rep.render(d);
    EXPECT_EQ(firstOf(rep, Rule::DeadCell).severity, Severity::Warning);
    ASSERT_EQ(countRule(rep, Rule::NeverReadReg), 1u) << rep.render(d);
    const Diagnostic &di = firstOf(rep, Rule::NeverReadReg);
    EXPECT_EQ(di.severity, Severity::Warning);
    EXPECT_EQ(di.sig, orphan_reg);
}

TEST(Lint, LivenessRespectsExplicitRoots)
{
    TwoChains t;
    // With only hit_a observable, the whole rb chain is dead/never-read.
    LintConfig cfg;
    cfg.roots = {t.hit_a};
    LintReport rep = lint(t.d, cfg);
    EXPECT_EQ(rep.errors(), 0u);
    EXPECT_GE(countRule(rep, Rule::DeadCell), 1u);
    EXPECT_EQ(countRule(rep, Rule::NeverReadReg), 1u);
    EXPECT_EQ(firstOf(rep, Rule::NeverReadReg).sig, t.rb);
}

TEST(Lint, NeverAbortsOnBadlyBrokenNetlist)
{
    // Several defects at once: lint must report them all, not die on
    // the first (Design::validate would rmp_fatal here).
    Design d("broken");
    Builder b(d);
    Sig x = b.input("x", 8);
    Sig n1 = b.named("n1", ~x);
    Sig n2 = b.named("n2", n1 & x);
    b.finalize();
    corrupt(d, n1.id).args[0] = n2.id;  // comb cycle
    corrupt(d, n2.id).width = 3;        // width mismatch
    d.addReg("r", BitVec(4, 0));        // undriven register
    LintReport rep = lint(d);
    EXPECT_GE(countRule(rep, Rule::CombCycle), 1u) << rep.render(d);
    EXPECT_GE(countRule(rep, Rule::WidthMismatch), 1u);
    EXPECT_EQ(countRule(rep, Rule::UndrivenReg), 1u);
}

TEST(Lint, Tiny3HarnessHasNoErrors)
{
    designs::Harness hx(designs::buildTiny3());
    LintReport rep = lint(hx.design());
    EXPECT_EQ(rep.errors(), 0u) << rep.render(hx.design());
    // JSON renders and mentions every rule it found.
    std::string js = rep.json(hx.design());
    EXPECT_NE(js.find("\"design\": \"tiny3\""), std::string::npos);
    EXPECT_NE(js.find("\"errors\": 0"), std::string::npos);
}

// ----------------------------------------------------------- lintIft --

namespace
{

/** r <- a (tainted source); out observes r combinationally. */
struct IftFixture
{
    Design d{"iftlint"};
    SigId a, r, out;
    IftFixture()
    {
        Builder b(d);
        Sig in = b.input("a", 8);
        RegSig rr = b.regh("r", 8);
        b.assign(rr, in);
        Sig o = b.named("out", rr.q == b.lit(8, 9));
        b.finalize();
        a = in.id;
        r = rr.q.id;
        out = o.id;
    }
};

} // namespace

TEST(LintIft, InstrumentedDesignIsSound)
{
    IftFixture f;
    ift::IftConfig icfg;
    icfg.taintSources = {f.r};
    ift::Instrumented inst = ift::instrument(f.d, icfg);
    LintReport rep = lintIft(f.d, inst);
    EXPECT_EQ(rep.errors(), 0u) << rep.render(*inst.design);
}

TEST(LintIft, Tiny3InstrumentationIsSound)
{
    designs::Harness hx(designs::buildTiny3());
    const uhb::DuvInfo &info = hx.duv();
    ift::IftConfig icfg;
    icfg.taintSources = {info.rs1Reg, info.rs2Reg};
    icfg.blockRegs = info.arfRegs;
    icfg.blockRegs.insert(icfg.blockRegs.end(), info.amemRegs.begin(),
                          info.amemRegs.end());
    icfg.persistentRegs = info.persistentRegs;
    icfg.txmGone = hx.txmGone;
    ift::Instrumented inst = ift::instrument(hx.design(), icfg);
    LintReport rep = lintIft(hx.design(), inst);
    EXPECT_EQ(rep.errors(), 0u) << rep.render(*inst.design);
}

TEST(LintIft, DetectsSeededTaintConeGap)
{
    IftFixture f;
    ift::IftConfig icfg;
    icfg.taintSources = {f.r};
    ift::Instrumented inst = ift::instrument(f.d, icfg);
    // Sever the taint plane: point out's shadow at a fresh constant, so
    // its cone no longer covers r's shadow sources.
    inst.shadow[f.out] = inst.design->addConst(BitVec(1, 0));
    LintReport rep = lintIft(f.d, inst);
    ASSERT_GE(countRule(rep, Rule::TaintConeGap), 1u)
        << rep.render(*inst.design);
    const Diagnostic &di = firstOf(rep, Rule::TaintConeGap);
    EXPECT_EQ(di.severity, Severity::Error);
    EXPECT_EQ(di.sig, f.out);
}
