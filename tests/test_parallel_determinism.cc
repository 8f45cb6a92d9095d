/**
 * @file
 * Determinism of the parallel evaluation path: the full RTL2MμPATH +
 * SynthLC flow on Tiny3 must produce bit-identical results with jobs=1
 * and jobs=4 — the same μPATHs (PL sets, schedules, revisit classes, HB
 * edges), the same decisions, the same per-step verdict tallies, and the
 * same rendered SynthLC leakage signatures. The engine pool guarantees
 * this by running every cover on its one engine in submission order,
 * whatever the thread count (DESIGN.md §3d), and simulation facts do not
 * depend on the width they fan out at (DESIGN.md §3h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "designs/dcache.hh"
#include "designs/tiny3.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "report/report.hh"
#include "rtl2mupath/synth.hh"
#include "synthlc/synthlc.hh"

using namespace rmp;
using namespace rmp::designs;
using namespace rmp::r2m;
using namespace rmp::uhb;

namespace
{

/** Solver work summed over a flow's two pools (synthesizer, SynthLC). */
struct SatWork
{
    uint64_t conflicts = 0;
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t learnedClauses = 0;
    uint64_t dbReductions = 0;
    uint64_t gcPasses = 0;
    uint64_t savedTrailLits = 0;

    void
    add(const sat::SatStats &s)
    {
        conflicts += s.conflicts;
        decisions += s.decisions;
        propagations += s.propagations;
        learnedClauses += s.learnedClauses;
        dbReductions += s.dbReductions;
        gcPasses += s.gcPasses;
        savedTrailLits += s.savedTrailLits;
    }

    bool operator==(const SatWork &) const = default;
};

void
PrintTo(const SatWork &w, std::ostream *os)
{
    *os << "{conflicts " << w.conflicts << ", decisions " << w.decisions
        << ", propagations " << w.propagations << ", learned "
        << w.learnedClauses << ", reductions " << w.dbReductions
        << ", gc " << w.gcPasses << ", saved trail " << w.savedTrailLits
        << "}";
}

/** Canonical rendering of one full flow run (order-stable by design). */
struct FlowResult
{
    std::string paths;       ///< every IUV's μPATHs + decisions, rendered
    std::string signatures;  ///< sorted SynthLC signature renderings
    std::vector<uint64_t> tallies; ///< per-step (q, r, u, undet) tuples
    SatWork sat;             ///< solver work of the whole flow
};

FlowResult
runFlow(bool zeroSkip, unsigned jobs, bool closure)
{
    Harness hx(buildTiny3({.withZeroSkip = zeroSkip}));
    SynthesisConfig scfg;
    scfg.jobs = jobs;
    scfg.closureChecks = closure;
    scfg.revisitCounts = closure;
    MuPathSynthesizer synth(hx, scfg);
    slc::SynthLcConfig lcfg;
    lcfg.jobs = jobs;
    slc::SynthLc slc(hx, lcfg);

    std::vector<InstrId> ids;
    for (InstrId i = 0; i < hx.duv().instrs.size(); i++)
        ids.push_back(i);
    auto all = synth.synthesizeAll(ids);

    FlowResult out;
    std::vector<std::string> sigs;
    for (InstrId i : ids) {
        const InstrPaths &p = all.at(i);
        out.paths += report::renderInstrPaths(hx, p);
        out.paths += report::renderDecisions(hx, p);
        for (const auto &s : slc.analyze(i, p.decisions, ids))
            sigs.push_back(slc.render(s));
    }
    std::sort(sigs.begin(), sigs.end());
    for (const auto &s : sigs)
        out.signatures += s + "\n";
    for (const auto &st : synth.stepStats()) {
        out.tallies.push_back(st.queries);
        out.tallies.push_back(st.reachable);
        out.tallies.push_back(st.unreachable);
        out.tallies.push_back(st.undetermined);
    }
    out.tallies.push_back(slc.stats().queries);
    out.tallies.push_back(slc.stats().reachable);
    out.tallies.push_back(slc.stats().unreachable);
    out.tallies.push_back(slc.stats().undetermined);
    out.tallies.push_back(slc.stats().simHits);
    out.sat.add(synth.pool().stats().sat);
    out.sat.add(slc.pool().stats().sat);
    return out;
}

} // namespace

TEST(ParallelDeterminism, Tiny3SemiFormalFlowIsJobsInvariant)
{
    FlowResult serial = runFlow(false, 1, false);
    FlowResult threaded = runFlow(false, 4, false);
    EXPECT_EQ(serial.paths, threaded.paths);
    EXPECT_EQ(serial.signatures, threaded.signatures);
    EXPECT_EQ(serial.tallies, threaded.tallies);
    EXPECT_FALSE(serial.paths.empty());
}

TEST(ParallelDeterminism, Tiny3ClosureFlowIsJobsInvariant)
{
    // The formal profile (closure queries + revisit counts) exercises
    // every batched step plus the memoized global revisit/edge covers.
    FlowResult serial = runFlow(true, 1, true);
    FlowResult threaded = runFlow(true, 4, true);
    EXPECT_EQ(serial.paths, threaded.paths);
    EXPECT_EQ(serial.signatures, threaded.signatures);
    EXPECT_EQ(serial.tallies, threaded.tallies);
    // The zero-skip core leaks: signatures must actually exist here.
    EXPECT_FALSE(serial.signatures.empty());
    // Each pool's incremental query stream, budgets included, replays
    // to the same search: the solvers do identical work at both job
    // counts. The stream is long enough to cross the learned-DB limit
    // and compact the arena, so reduction and GC are replayed too.
    EXPECT_EQ(serial.sat, threaded.sat);
    EXPECT_GT(serial.sat.dbReductions, 0u);
    EXPECT_GT(serial.sat.gcPasses, 0u);
}

TEST(ParallelDeterminism, ExplorationFansOutAtJobsWidth)
{
    // --jobs is the one thread count: at jobs=1 every exploration runs
    // on the calling thread alone, and its facts equal those at jobs=4.
    Harness hx(buildTiny3());
    std::vector<InstrId> ids;
    for (InstrId i = 0; i < hx.duv().instrs.size(); i++)
        ids.push_back(i);
    SynthesisConfig one, four;
    one.jobs = 1;
    four.jobs = 4;
    MuPathSynthesizer serial(hx, one), wide(hx, four);

    obs::clearTrace();
    obs::setEnabled(true);
    serial.synthesizeAll(ids);
    obs::setEnabled(false);
    std::string json = obs::traceJson();
    obs::clearTrace();

    // One event per line; read the "threads" arg of every exploration
    // span (category sim).
    const std::string tag = "\"name\": \"sim-explore\", \"cat\": \"sim\"";
    size_t spans = 0;
    for (size_t at = json.find(tag); at != std::string::npos;
         at = json.find(tag, at + 1)) {
        std::string line = json.substr(at, json.find('\n', at) - at);
        size_t t = line.find("\"threads\": ");
        ASSERT_NE(t, std::string::npos) << line;
        EXPECT_EQ(std::stoul(line.substr(t + 11)), 1u) << line;
        spans++;
    }
    EXPECT_EQ(spans, ids.size());

    for (InstrId i : ids)
        EXPECT_TRUE(factsEqual(serial.facts(i), wide.facts(i)))
            << hx.duv().instrs[i].name;
}

TEST(ParallelDeterminism, QueryCacheHitsAreNonZeroOnFullSynthesis)
{
    // Closure-mode synthesis re-issues the per-instruction global
    // revisit/no-edge covers once per Reachable PL Set; every repeat must
    // be served by the query cache, never a solver. The cache DUV's LDREQ
    // has several Reachable PL Sets (hit / miss / queued-miss) sharing
    // PLs, so repeats are guaranteed.
    Harness hx(buildDcache());
    SynthesisConfig scfg;
    scfg.closureChecks = true;
    scfg.jobs = 2;
    MuPathSynthesizer synth(hx, scfg);
    InstrPaths r = synth.synthesize(hx.duv().instrId("LDREQ"));
    EXPECT_GT(r.paths.size(), 1u);
    exec::PoolStats s = synth.pool().stats();
    EXPECT_GT(s.cache.hits, 0u)
        << "repeated covers should replay from the query cache";
    EXPECT_GT(s.cache.misses, 0u);
    EXPECT_EQ(s.cache.misses, s.engine.queries);
}
