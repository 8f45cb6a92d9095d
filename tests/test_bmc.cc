/**
 * @file
 * Tests for the AIG, the unroller, the property layer, and the BMC engine:
 * cover reachability/unreachability with witnesses, assumes, ##1 sequences,
 * budgets, and randomized equivalence between the bit-blaster and the
 * simulator.
 */

#include <gtest/gtest.h>

#include <random>

#include "bmc/engine.hh"
#include "designs/catalog.hh"
#include "designs/harness.hh"
#include "rtlir/builder.hh"

using namespace rmp;
using namespace rmp::bmc;
using namespace rmp::prop;

TEST(Aig, ConstantFolding)
{
    Aig g;
    AigLit a = g.addInput();
    EXPECT_EQ(g.mkAnd(a, kFalse), kFalse);
    EXPECT_EQ(g.mkAnd(a, kTrue), a);
    EXPECT_EQ(g.mkAnd(a, a), a);
    EXPECT_EQ(g.mkAnd(a, aigNot(a)), kFalse);
    EXPECT_EQ(g.mkOr(a, kTrue), kTrue);
    EXPECT_EQ(g.mkXor(a, a), kFalse);
    EXPECT_EQ(g.mkXor(a, aigNot(a)), kTrue);
}

TEST(Aig, StructuralHashing)
{
    Aig g;
    AigLit a = g.addInput();
    AigLit b = g.addInput();
    AigLit x = g.mkAnd(a, b);
    AigLit y = g.mkAnd(b, a);
    EXPECT_EQ(x, y);
    size_t n = g.numAnds();
    g.mkAnd(a, b);
    EXPECT_EQ(g.numAnds(), n);
}

TEST(Aig, OverlayNumbersLikeACopy)
{
    // An overlay over a frozen base returns exactly the literals that the
    // same calls return on a deep copy of the base, and leaves the base
    // untouched.
    Aig base;
    AigLit a = base.addInput();
    AigLit b = base.addInput();
    AigLit c = base.addInput();
    AigLit ab = base.mkAnd(a, b);
    AigLit bc = base.mkOr(b, c);
    const size_t baseNodes = base.numNodes();
    const size_t baseAnds = base.numAnds();
    Aig copy = base;
    Aig overlay(&base);
    EXPECT_EQ(overlay.numNodes(), baseNodes);
    EXPECT_EQ(overlay.numAnds(), baseAnds);

    // A pair the base hashes: the base literal, and no new node.
    EXPECT_EQ(overlay.mkAnd(b, a), ab);
    EXPECT_EQ(overlay.numNodes(), baseNodes);
    // A new pair: the first id after the base's.
    AigLit ac = overlay.mkAnd(a, c);
    EXPECT_EQ(aigNode(ac), baseNodes);
    EXPECT_EQ(overlay.numAnds(), baseAnds + 1);
    EXPECT_EQ(copy.mkAnd(b, a), ab);
    EXPECT_EQ(copy.mkAnd(a, c), ac);

    auto script = [&](Aig &g) {
        std::vector<AigLit> out;
        out.push_back(g.mkAnd(ac, bc)); // overlay node x base node
        out.push_back(g.mkXor(a, c));
        out.push_back(g.mkMux(ab, ac, bc));
        out.push_back(g.mkAnd(bc, ac)); // hashed in the overlay itself
        out.push_back(g.mkOrN({a, b, c, ab}));
        out.push_back(g.mkAnd(aigNot(ab), bc)); // base pair, new to both
        out.push_back(g.addInput());
        out.push_back(g.mkAnd(out.back(), a));
        return out;
    };
    EXPECT_EQ(script(overlay), script(copy));
    ASSERT_EQ(overlay.numNodes(), copy.numNodes());
    EXPECT_EQ(overlay.numAnds(), copy.numAnds());
    for (uint32_t n = 1; n < copy.numNodes(); n++) {
        ASSERT_EQ(overlay.isInput(n), copy.isInput(n)) << n;
        if (copy.isInput(n))
            continue;
        EXPECT_EQ(overlay.fanin0(n), copy.fanin0(n)) << n;
        EXPECT_EQ(overlay.fanin1(n), copy.fanin1(n)) << n;
    }
    EXPECT_EQ(base.numNodes(), baseNodes);
    EXPECT_EQ(base.numAnds(), baseAnds);
}

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

} // namespace

TEST(Bmc, CounterReachesValueWithinBound)
{
    CounterDesign cd;
    EngineConfig cfg;
    cfg.bound = 10;
    Engine eng(cd.d, cfg);
    CoverResult r = eng.cover(pEq(cd.cnt, 7), {});
    ASSERT_EQ(r.outcome, Outcome::Reachable);
    EXPECT_EQ(r.witness.matchFrame, 7u);
}

TEST(Bmc, CounterCannotReachValueBeyondBound)
{
    CounterDesign cd;
    EngineConfig cfg;
    cfg.bound = 5;
    Engine eng(cd.d, cfg);
    CoverResult r = eng.cover(pEq(cd.cnt, 9), {});
    EXPECT_EQ(r.outcome, Outcome::Unreachable);
}

TEST(Bmc, CoverAtSpecificFrame)
{
    CounterDesign cd;
    EngineConfig cfg;
    cfg.bound = 10;
    Engine eng(cd.d, cfg);
    EXPECT_EQ(eng.coverAt(pEq(cd.cnt, 3), {}, 3).outcome,
              Outcome::Reachable);
    EXPECT_EQ(eng.coverAt(pEq(cd.cnt, 3), {}, 4).outcome,
              Outcome::Unreachable);
}

TEST(Bmc, SequenceDelayMatches)
{
    CounterDesign cd;
    EngineConfig cfg;
    cfg.bound = 10;
    Engine eng(cd.d, cfg);
    // cnt==2 ##1 cnt==3 is reachable; cnt==2 ##1 cnt==5 is not.
    CoverResult r =
        eng.cover(pDelay(pEq(cd.cnt, 2), 1, pEq(cd.cnt, 3)), {});
    ASSERT_EQ(r.outcome, Outcome::Reachable);
    EXPECT_EQ(r.witness.matchFrame, 2u);
    EXPECT_EQ(eng.cover(pDelay(pEq(cd.cnt, 2), 1, pEq(cd.cnt, 5)), {})
                  .outcome,
              Outcome::Unreachable);
}

TEST(Bmc, InputDrivenCoverWithWitness)
{
    Design d("acc");
    Builder b(d);
    Sig in = b.input("in", 4);
    RegSig acc = b.regh("acc", 8, 0);
    b.assign(acc, acc.q + in.zext(8));
    b.finalize();
    EngineConfig cfg;
    cfg.bound = 6;
    Engine eng(d, cfg);
    // Accumulator can reach 45 = 15*3 within 6 cycles (value appears the
    // cycle after the last addend is applied).
    CoverResult r = eng.cover(pEq(acc.q.id, 45), {});
    ASSERT_EQ(r.outcome, Outcome::Reachable);
    // Witness was replayed on the simulator by the engine; re-derive sum.
    uint64_t sum = 0;
    for (unsigned t = 0; t + 1 <= r.witness.matchFrame; t++)
        sum += r.witness.inputs[t].at(in.id);
    EXPECT_EQ(sum, 45u);
    // 8-bit accumulator in 6 cycles cannot exceed 5*15 = 75.
    EXPECT_EQ(eng.cover(pEq(acc.q.id, 80), {}).outcome,
              Outcome::Unreachable);
}

TEST(Bmc, AssumesConstrainInputs)
{
    Design d("asm");
    Builder b(d);
    Sig in = b.input("in", 4);
    RegSig seen = b.regh("seen", 1, 0);
    b.when(in == b.lit(4, 9));
    b.assign(seen, b.lit1(true));
    b.end();
    b.finalize();
    EngineConfig cfg;
    cfg.bound = 4;
    Engine eng(d, cfg);
    // Without assumes: in==9 reachable.
    EXPECT_EQ(eng.cover(pBit(seen.q.id), {}).outcome, Outcome::Reachable);
    // Assume in != 9 every cycle: unreachable.
    EXPECT_EQ(eng.cover(pBit(seen.q.id), {pNot(pEq(in.id, 9))}).outcome,
              Outcome::Unreachable);
    // Assume in == 9 every cycle: still reachable.
    EXPECT_EQ(eng.cover(pBit(seen.q.id), {pEq(in.id, 9)}).outcome,
              Outcome::Reachable);
}

TEST(Bmc, ContradictoryAssumesAreUnreachable)
{
    CounterDesign cd;
    EngineConfig cfg;
    cfg.bound = 4;
    Engine eng(cd.d, cfg);
    auto contradiction = pAnd(pEq(cd.cnt, 0), pNot(pEq(cd.cnt, 0)));
    EXPECT_EQ(eng.cover(pTrue(), {contradiction}).outcome,
              Outcome::Unreachable);
}

TEST(Bmc, ConstantFalseCoverLeavesTheSolverUntouched)
{
    // A cover that folds to constant false in the unrolling is
    // Unreachable whatever the assumes say, so its input-dependent
    // assumes are not encoded: the engine's SAT instance stays empty.
    Design d("stuck");
    Builder b(d);
    Sig in = b.input("in", 4);
    RegSig zero = b.regh("zero", 1, 0);
    b.assign(zero, zero.q);
    b.finalize();
    EngineConfig cfg;
    cfg.bound = 4;
    Engine eng(d, cfg);
    CoverResult r = eng.cover(pBit(zero.q.id), {pNot(pEq(in.id, 9))});
    EXPECT_EQ(r.outcome, Outcome::Unreachable);
    EXPECT_EQ(eng.coiStats().satVars, 0u);
}

TEST(Bmc, ArithmeticCoverFindsFactors)
{
    // "Find x, y with x * y == 35": a tiny SAT-style query through the
    // multiplier bit-blasting.
    Design d("mul");
    Builder b(d);
    Sig x = b.input("x", 8);
    Sig y = b.input("y", 8);
    RegSig p = b.regh("p", 8, 0);
    b.assign(p, x * y);
    b.finalize();
    EngineConfig cfg;
    cfg.bound = 2;
    Engine eng(d, cfg);
    auto not_one = [&](SigId s) {
        return pAnd(pNot(pEq(s, 1)), pNot(pEq(s, 0)));
    };
    CoverResult r = eng.cover(pEq(p.q.id, 35),
                              {not_one(x.id), not_one(y.id)});
    ASSERT_EQ(r.outcome, Outcome::Reachable);
    uint64_t xv = r.witness.inputs[0].at(x.id);
    uint64_t yv = r.witness.inputs[0].at(y.id);
    EXPECT_EQ((xv * yv) & 0xff, 35u);
    EXPECT_NE(xv, 1u);
    EXPECT_NE(yv, 1u);
}

TEST(Bmc, PropertyDepthAccounting)
{
    auto e = pDelay(pTrue(), 3, pDelay(pTrue(), 2, pTrue()));
    EXPECT_EQ(e->depth(), 5u);
    EXPECT_EQ(pTrue()->depth(), 0u);
}

class BmcVsSim : public ::testing::TestWithParam<int>
{
};

TEST_P(BmcVsSim, RandomDesignEquivalence)
{
    // Build a random small design; drive random inputs through the
    // simulator; then ask the engine to cover the exact final state via
    // coverAt with the same input constraints, which must be reachable.
    std::mt19937 rng(GetParam() * 7919);
    Design d("rand");
    Builder b(d);
    Sig i0 = b.input("i0", 4);
    Sig i1 = b.input("i1", 4);
    RegSig r0 = b.regh("r0", 4, GetParam() & 0xf);
    RegSig r1 = b.regh("r1", 4, 0);
    // Random-ish datapath mixing ops.
    Sig t0 = (r0.q + i0) ^ r1.q;
    Sig t1 = b.mux(i1.bit(0), r0.q * i1, r0.q - i0);
    b.assign(r0, t0);
    b.assign(r1, t1 | i0);
    b.finalize();

    const unsigned T = 5;
    std::vector<InputMap> ins(T);
    Simulator sim(d);
    for (unsigned t = 0; t < T; t++) {
        ins[t] = {{i0.id, rng() & 0xf}, {i1.id, rng() & 0xf}};
        sim.step(ins[t]);
    }
    uint64_t fr0 = sim.value(r0.q.id), fr1 = sim.value(r1.q.id);

    EngineConfig cfg;
    cfg.bound = T;
    Engine eng(d, cfg);
    // Constrain inputs per-cycle via a big assume: inputs follow the
    // recorded values (encoded as (cycle marker) implications using a
    // counter is overkill; instead check reachability of the joint final
    // state without constraints — it must be reachable since we exhibited
    // it — then validate the witness equivalence through the replayed
    // trace values).
    CoverResult r = eng.coverAt(
        pAnd(pEq(r0.q.id, fr0), pEq(r1.q.id, fr1)), {}, T - 1);
    ASSERT_EQ(r.outcome, Outcome::Reachable)
        << "state (" << fr0 << "," << fr1 << ") reached in sim but not BMC";
    EXPECT_EQ(r.witness.trace.value(T - 1, r0.q.id), fr0);
    EXPECT_EQ(r.witness.trace.value(T - 1, r1.q.id), fr1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BmcVsSim, ::testing::Range(0, 12));

TEST(Bmc, RepeatedFailedAssumptionCoreSkipsSolver)
{
    // Two covers under the same contradictory assumes on one engine: the
    // first solve extracts a failed-assumption core (analyzeFinal); the
    // second query's assumption set contains that core, so the engine
    // answers Unreachable without solving — and the DRAT audit still
    // closes the verdict, because the core clause is in the proof trace.
    Design d("core");
    Builder b(d);
    Sig in = b.input("in", 4);
    RegSig seen = b.regh("seen", 1, 0);
    b.when(in == b.lit(4, 9));
    b.assign(seen, b.lit1(true));
    b.end();
    b.finalize();
    EngineConfig cfg;
    cfg.bound = 4;
    cfg.auditProof = true;
    Engine eng(d, cfg);
    std::vector<prop::ExprRef> assumes = {pEq(in.id, 3), pEq(in.id, 5)};
    CoverResult r1 = eng.cover(pBit(seen.q.id), assumes);
    EXPECT_EQ(r1.outcome, Outcome::Unreachable);
    EXPECT_TRUE(r1.audit.proofChecked);
    EXPECT_FALSE(r1.audit.mismatch) << r1.audit.detail;
    CoverResult r2 = eng.cover(pEq(in.id, 5), assumes);
    EXPECT_EQ(r2.outcome, Outcome::Unreachable);
    EXPECT_TRUE(r2.audit.proofChecked);
    EXPECT_FALSE(r2.audit.mismatch) << r2.audit.detail;
    EXPECT_GE(eng.stats().assumptionCoreHits, 1u);
    EXPECT_EQ(eng.stats().unreachable, 2u);
}

TEST(Bmc, StatsAccumulate)
{
    CounterDesign cd;
    EngineConfig cfg;
    cfg.bound = 8;
    Engine eng(cd.d, cfg);
    eng.cover(pEq(cd.cnt, 1), {});
    eng.cover(pEq(cd.cnt, 12), {});
    EXPECT_EQ(eng.stats().queries, 2u);
    EXPECT_EQ(eng.stats().reachable, 1u);
    EXPECT_EQ(eng.stats().unreachable, 1u);
}

TEST(Bmc, SharedUnrollingMatchesPrivateEngine)
{
    // B1 and B2 share one unrolling, A has a private one. B1 first runs a
    // different cover stream, growing only its own overlay; B2 then
    // answers A's stream with the same AIG ids, SAT variables, search
    // and witnesses.
    designs::Harness hx(*designs::buildDuv("tiny3"));
    EngineConfig cfg;
    cfg.bound = hx.duv().completenessBound;
    auto shared = std::make_shared<const Unrolling>(hx.design(), cfg.bound);
    Engine b1(shared, cfg);
    Engine b2(shared, cfg);
    Engine a(hx.design(), cfg);
    const std::vector<ExprRef> base = hx.baseAssumes();

    for (uhb::PlId p = 0; p < hx.numPls(); p++)
        b1.cover(pBit(hx.plSig(p).iuvVisited), base);
    EXPECT_GT(b1.coiStats().aigNodes, shared->aig().numNodes());

    size_t reachable = 0;
    for (uhb::PlId p = 0; p < hx.numPls(); p++) {
        ExprRef occupied = pBit(hx.plSig(p).occupied);
        CoverResult ra = a.cover(occupied, base);
        CoverResult rb = b2.cover(occupied, base);
        ASSERT_EQ(ra.outcome, rb.outcome) << hx.plName(p);
        if (ra.reachable()) {
            reachable++;
            EXPECT_EQ(ra.witness.inputs, rb.witness.inputs) << hx.plName(p);
            EXPECT_EQ(ra.witness.matchFrame, rb.witness.matchFrame)
                << hx.plName(p);
        }
        EXPECT_EQ(a.coiStats().aigNodes, b2.coiStats().aigNodes);
        EXPECT_EQ(a.coiStats().satVars, b2.coiStats().satVars);
    }
    EXPECT_GT(reachable, 0u);
    EXPECT_GT(a.satStats().decisions, 0u);
    EXPECT_EQ(a.satStats().conflicts, b2.satStats().conflicts);
    EXPECT_EQ(a.satStats().decisions, b2.satStats().decisions);
    EXPECT_EQ(a.satStats().propagations, b2.satStats().propagations);
}
