/**
 * @file
 * Differential tests for the compiled batched simulation engine
 * (DESIGN.md §3h): the op tape + BatchSim are only trusted because this
 * file replays seeded random programs through both engines on every
 * built-in design and asserts bit-identical watched values — at every
 * lane position, at 1 and at kMaxLanes lanes — and because a seeded
 * corrupted-tape check proves the differential harness actually detects
 * injected defects (i.e. the oracle comparison is not vacuous).
 *
 * Also pins down the acceptance property of the exploration rewrite:
 * exploreSim facts are bit-identical across engines and across any
 * lane count or width (factsEqual is deep, witnesses included).
 */

#include <gtest/gtest.h>

#include <random>

#include "designs/dcache.hh"
#include "designs/harness.hh"
#include "designs/mcva.hh"
#include "designs/tiny3.hh"
#include "rtl2mupath/sim_explore.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "sim/tape.hh"

using namespace rmp;
using namespace rmp::designs;

namespace
{

/** Every built-in DUV, harnessed (the configuration the engines run). */
std::vector<Harness>
allHarnesses()
{
    std::vector<Harness> v;
    v.emplace_back(buildTiny3());
    v.emplace_back(buildTiny3({.withZeroSkip = true}));
    v.emplace_back(buildMcva());
    v.emplace_back(buildMcva({.withZeroSkipMul = true}));
    v.emplace_back(buildMcva({.withOperandPacking = true}));
    v.emplace_back(buildMcva({.fixAlignmentBugs = true}));
    v.emplace_back(buildMcva({.withScbCounterBug = true}));
    v.emplace_back(buildDcache());
    return v;
}

/** Watch everything: the strongest differential (no pruning slack). */
std::vector<SigId>
watchAll(const Design &d)
{
    std::vector<SigId> w(d.numCells());
    for (SigId s = 0; s < d.numCells(); s++)
        w[s] = s;
    return w;
}

/** One seeded random program: per-cycle input valuations. */
std::vector<InputMap>
randomProgram(const Design &d, unsigned cycles, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<InputMap> prog(cycles);
    for (unsigned t = 0; t < cycles; t++)
        for (SigId in : d.inputs())
            prog[t][in] = rng() & BitVec::maskOf(d.width(in));
    return prog;
}

/**
 * Run @p progs (one per lane) through the interpreted oracle and through
 * one BatchSim over @p tape, and return the number of (cycle, watch,
 * lane) positions whose values differ. Zero on a healthy tape.
 */
size_t
diffCount(const Design &d, const sim::Tape &tape,
          const std::vector<std::vector<InputMap>> &progs, unsigned cycles)
{
    sim::BatchSim bs(tape, static_cast<unsigned>(progs.size()));
    bs.reserveTrace(cycles);
    std::vector<Simulator> oracle;
    for (size_t l = 0; l < progs.size(); l++)
        oracle.emplace_back(d);
    size_t diffs = 0;
    for (unsigned t = 0; t < cycles; t++) {
        bs.clearInputs();
        for (size_t l = 0; l < progs.size(); l++) {
            bs.stageInputs(static_cast<unsigned>(l), progs[l][t]);
            oracle[l].step(progs[l][t]);
        }
        bs.step();
        for (size_t l = 0; l < progs.size(); l++)
            for (size_t k = 0; k < tape.watchSigs.size(); k++)
                if (bs.watched(t, k, static_cast<unsigned>(l)) !=
                    oracle[l].value(tape.watchSigs[k]))
                    diffs++;
    }
    return diffs;
}

std::vector<std::vector<InputMap>>
randomPrograms(const Design &d, size_t lanes, unsigned cycles,
               uint64_t seed)
{
    std::vector<std::vector<InputMap>> progs;
    for (size_t l = 0; l < lanes; l++)
        progs.push_back(randomProgram(d, cycles, seed + 1000 * l));
    return progs;
}

} // namespace

TEST(SimCompiled, EveryDesignMatchesOracleAtOneAndMaxLanes)
{
    constexpr unsigned kCycles = 24;
    for (const Harness &hx : allHarnesses()) {
        const Design &d = hx.design();
        sim::Tape tape = sim::compileTape(d, watchAll(d));
        EXPECT_EQ(tape.cellsPruned, 0u)
            << d.name() << ": watching everything must prune nothing";
        // kMaxLanes distinct programs, one per lane position.
        auto progs = randomPrograms(d, sim::kMaxLanes, kCycles, 7);
        EXPECT_EQ(diffCount(d, tape, progs, kCycles), 0u)
            << d.name() << " at " << sim::kMaxLanes << " lanes";
        // The same programs again, one lane at a time: lane-position
        // independence (lane 0 of a 1-lane batch == lane l of a 16-lane
        // batch, both == the oracle).
        for (size_t l = 0; l < progs.size(); l += 5)
            EXPECT_EQ(diffCount(d, tape, {progs[l]}, kCycles), 0u)
                << d.name() << " single-lane replay of lane " << l;
    }
}

TEST(SimCompiled, PrunedWatchSubsetStaysExact)
{
    Harness hx(buildMcva());
    const Design &d = hx.design();
    // Watch only the PL occupancy bits: plenty of combinational logic
    // (decode of untracked paths) falls outside watch + register cone.
    std::vector<SigId> watch;
    for (uhb::PlId p = 0; p < hx.numPls(); p++)
        watch.push_back(hx.plSig(p).occupied);
    sim::Tape tape = sim::compileTape(d, watch);
    EXPECT_GT(tape.cellsPruned, 0u) << "narrow watch should prune";
    EXPECT_GT(tape.constsFolded, 0u);
    EXPECT_LT(tape.numOps(), static_cast<size_t>(tape.cellsTotal));
    auto progs = randomPrograms(d, 8, 32, 11);
    EXPECT_EQ(diffCount(d, tape, progs, 32), 0u);
}

TEST(SimCompiled, CorruptedTapeIsDetected)
{
    // Guard against a vacuous differential: inject a defect into the
    // compiled artifact and require the oracle comparison to notice.
    Harness hx(buildTiny3());
    const Design &d = hx.design();
    sim::Tape tape = sim::compileTape(d, watchAll(d));
    auto progs = randomPrograms(d, 8, 24, 13);
    ASSERT_EQ(diffCount(d, tape, progs, 24), 0u);

    std::mt19937_64 rng(17);
    size_t detected = 0, tried = 0;
    while (tried < 6) {
        sim::Tape bad = tape;
        size_t i = rng() % bad.numOps();
        // Flip the op to a different one with compatible arity so the
        // corrupted tape still executes safely.
        auto o = static_cast<sim::TOp>(bad.opc[i]);
        sim::TOp swapped;
        switch (o) {
        case sim::TOp::Add: swapped = sim::TOp::Sub; break;
        case sim::TOp::Sub: swapped = sim::TOp::Add; break;
        case sim::TOp::And: swapped = sim::TOp::Or; break;
        case sim::TOp::Or: swapped = sim::TOp::Xor; break;
        case sim::TOp::Xor: swapped = sim::TOp::And; break;
        case sim::TOp::Eq: swapped = sim::TOp::Ult; break;
        default: continue; // try another op index
        }
        bad.opc[i] = static_cast<uint8_t>(swapped);
        tried++;
        if (diffCount(d, bad, progs, 24) > 0)
            detected++;
    }
    // Random operands make an undetected opcode swap vanishingly rare;
    // require a decisive majority so the harness provably has teeth.
    EXPECT_GE(detected, tried - 1) << "differential harness missed "
                                   << tried - detected << "/" << tried
                                   << " injected defects";
}

TEST(SimCompiled, DenseInputPathMatchesMapShim)
{
    Harness hx(buildTiny3());
    const Design &d = hx.design();
    sim::Tape tape = sim::compileTape(d, watchAll(d));
    auto prog = randomProgram(d, 16, 23);
    sim::BatchSim viaMap(tape, 1), viaDense(tape, 1);
    for (unsigned t = 0; t < 16; t++) {
        viaMap.clearInputs();
        viaDense.clearInputs();
        viaMap.stageInputs(0, prog[t]);
        for (const auto &[sig, v] : prog[t]) {
            uint32_t ord = tape.inputOrdinal[sig];
            ASSERT_NE(ord, sim::kNoInput);
            viaDense.setInput(0, ord, v & BitVec::maskOf(d.width(sig)));
        }
        viaMap.step();
        viaDense.step();
        for (size_t k = 0; k < tape.watchSigs.size(); k++)
            ASSERT_EQ(viaMap.watched(t, k, 0), viaDense.watched(t, k, 0));
    }
}

TEST(SimCompiled, StageInputRejectsPrunedInputs)
{
    // A DUV's inputs all reach register cones, so build a toy design
    // with an input whose entire fanout is dead under a narrow watch.
    Design d("toy");
    SigId a = d.addInput("a", 8);
    SigId b = d.addInput("b", 8);
    SigId sum = d.addBinary(Op::Add, a, a);
    SigId r = d.addReg("r", BitVec(8, 0));
    d.connectRegNext(r, sum);
    (void)d.addBinary(Op::Xor, b, b); // outside watch + register cone
    sim::Tape tape = sim::compileTape(d, {r});
    EXPECT_NE(tape.inputOrdinal[a], sim::kNoInput);
    EXPECT_EQ(tape.inputOrdinal[b], sim::kNoInput);
    sim::BatchSim bs(tape, 1);
    EXPECT_TRUE(bs.stageInput(0, a, 3));
    EXPECT_FALSE(bs.stageInput(0, b, 3));
    bs.step();
    bs.step();
    // r latched a+a; the dead input staged nothing anywhere.
    EXPECT_EQ(bs.watched(1, 0, 0), 6u);
}

#if !defined(NDEBUG)
TEST(SimCompiled, TraceValueBoundsCheckedInDebugBuilds)
{
    SimTrace t;
    t.frames = {{1, 2, 3}};
    EXPECT_EQ(t.value(0, 2), 3u);
    EXPECT_DEATH((void)t.value(1, 0), "out of range");
    EXPECT_DEATH((void)t.value(0, 3), "out of range");
}
#endif

TEST(SimCompiled, ExploreFactsInvariantAcrossEnginesLanesThreadsBackends)
{
    // The acceptance property of the exploration rewrite: SimFacts —
    // witnesses included — are bit-identical across the engine choice
    // and every lane/thread count (runs are seeded per (seed, iuv, run)
    // and merged serially in run order). The lane counts reach both
    // kernels the CPU dispatch picks from (DESIGN.md §3h): the portable
    // one at 1 and 2 lanes, AVX2 where available from 4 up.
    for (const char *duv : {"tiny3", "mcva"}) {
        Harness hx(std::string(duv) == "tiny3" ? buildTiny3()
                                               : buildMcva());
        uhb::InstrId iuv = hx.duv().instrId(
            std::string(duv) == "tiny3" ? "MUL" : "DIV");
        r2m::SimExploreConfig base;
        base.runs = 250;
        base.engine = r2m::SimEngine::Interpreted;
        r2m::SimFacts ref = r2m::exploreSim(hx, iuv, base, 1);
        EXPECT_TRUE(r2m::factsEqual(ref, ref));

        struct Cfg
        {
            unsigned lanes, threads;
        };
        for (Cfg c : {Cfg{1, 1}, Cfg{2, 2}, Cfg{5, 2}, Cfg{8, 2},
                      Cfg{8, 4}, Cfg{16, 1}, Cfg{16, 3}}) {
            r2m::SimExploreConfig cc = base;
            cc.engine = r2m::SimEngine::Compiled;
            cc.lanes = c.lanes;
            r2m::SimFacts got = r2m::exploreSim(hx, iuv, cc, c.threads);
            EXPECT_TRUE(r2m::factsEqual(ref, got))
                << duv << " facts diverge at lanes=" << c.lanes
                << " threads=" << c.threads;
        }
    }
}
