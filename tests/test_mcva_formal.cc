/**
 * @file
 * Targeted formal-pipeline tests on MiniCVA using the semi-formal
 * profile (simulation-guided exploration + budget-limited closure), plus
 * direct tests of the simulation explorer.
 */

#include <gtest/gtest.h>

#include <set>

#include "designs/mcva.hh"
#include "rtl2mupath/sim_explore.hh"
#include "rtl2mupath/synth.hh"
#include "synthlc/synthlc.hh"

using namespace rmp;
using namespace rmp::designs;
using namespace rmp::r2m;
using namespace rmp::uhb;

namespace
{

SynthesisConfig
fastCfg()
{
    SynthesisConfig cfg;
    cfg.budget.maxConflicts = 8000;
    cfg.closureChecks = false; // semi-formal profile
    cfg.explore.runs = 800;
    return cfg;
}

PlId
plByName(const Harness &hx, const std::string &n)
{
    for (PlId p = 0; p < hx.numPls(); p++)
        if (hx.plName(p) == n)
            return p;
    return kNoPl;
}

} // namespace

TEST(McvaExplore, SimFindsLoadStallAndFinishPaths)
{
    Harness hx(buildMcva());
    SimExploreConfig cfg;
    cfg.runs = 1500;
    SimFacts f = exploreSim(hx, hx.duv().instrId("LW"), cfg, 0);
    PlId ld_stall = plByName(hx, "ldStall");
    PlId ld_fin = plByName(hx, "ldFin");
    EXPECT_TRUE(f.iuvPls.count(ld_fin));
    EXPECT_TRUE(f.iuvPls.count(ld_stall));
    // Both decision branches at issue observed.
    PlId issue = plByName(hx, "issue");
    ASSERT_TRUE(f.succ.count(issue));
    bool to_stall = false, to_fin = false;
    for (const auto &pat : f.succ.at(issue)) {
        std::set<PlId> s(pat.begin(), pat.end());
        if (s.count(ld_stall))
            to_stall = true;
        if (s.count(ld_fin) && !s.count(ld_stall))
            to_fin = true;
    }
    EXPECT_TRUE(to_stall);
    EXPECT_TRUE(to_fin);
}

TEST(McvaExplore, WitnessesReplayConsistently)
{
    Harness hx(buildMcva());
    SimExploreConfig cfg;
    cfg.runs = 200;
    SimFacts f = exploreSim(hx, hx.duv().instrId("ADD"), cfg, 0);
    ASSERT_FALSE(f.sets.empty());
    // Replaying a witness's inputs must reproduce its trace.
    const auto &sf = f.sets.begin()->second;
    Simulator sim(hx.design());
    for (const auto &in : sf.witness.inputs)
        sim.step(in);
    ASSERT_EQ(sim.trace().numCycles(), sf.witness.trace.numCycles());
    size_t last = sim.trace().numCycles() - 1;
    for (PlId p = 0; p < hx.numPls(); p++)
        EXPECT_EQ(sim.trace().value(last, hx.plSig(p).iuvVisited),
                  sf.witness.trace.value(last, hx.plSig(p).iuvVisited));
}

TEST(McvaFormal, LoadHasStallAndFinishUPaths)
{
    Harness hx(buildMcva());
    MuPathSynthesizer synth(hx, fastCfg());
    InstrPaths r = synth.synthesize(hx.duv().instrId("LW"));
    ASSERT_GE(r.paths.size(), 2u);
    PlId ld_stall = plByName(hx, "ldStall");
    bool stall_set = false, fin_set = false;
    for (const auto &p : r.paths) {
        if (p.plSet.count(ld_stall))
            stall_set = true;
        else
            fin_set = true;
    }
    EXPECT_TRUE(stall_set);
    EXPECT_TRUE(fin_set);
    // The decision at issue exists with >= 2 destinations (Fig. 4b).
    auto srcs = r.decisionSources();
    std::set<std::string> names;
    for (PlId s : srcs)
        names.insert(hx.plName(s));
    EXPECT_TRUE(names.count("issue"));
}

TEST(McvaFormal, DivRevisitCountsCoverLatencyRange)
{
    Harness hx(buildMcva());
    SynthesisConfig cfg = fastCfg();
    cfg.revisitCounts = true;
    cfg.maxRevisitCount = 8;
    cfg.explore.runs = 2500;
    MuPathSynthesizer synth(hx, cfg);
    InstrPaths r = synth.synthesize(hx.duv().instrId("DIV"));
    PlId divu = plByName(hx, "divU");
    std::set<unsigned> counts;
    for (const auto &p : r.paths)
        if (p.revisitCounts.count(divu))
            for (unsigned c : p.revisitCounts.at(divu))
                counts.insert(c);
    // The serial divider's dividend-dependent latency: many distinct
    // occupancy counts within 1..8 must be realizable.
    EXPECT_GE(counts.size(), 5u);
    EXPECT_TRUE(counts.count(1));
    EXPECT_TRUE(counts.count(8));
}

TEST(McvaFormal, StoreToLoadLeakSignatureAtIssue)
{
    Harness hx(buildMcva());
    MuPathSynthesizer synth(hx, fastCfg());
    slc::SynthLcConfig lcfg;
    lcfg.budget.maxConflicts = 1000;
    lcfg.simRuns = 300;
    lcfg.testDynamicYounger = false; // scope to the Fig. 5 LD_issue types
    lcfg.testStatic = false;
    slc::SynthLc slc(hx, lcfg);
    InstrId lw = hx.duv().instrId("LW");
    InstrId sw = hx.duv().instrId("SW");
    InstrPaths r = synth.synthesize(lw);
    // Scope the analysis to the issue decision source (Fig. 4b / Fig. 5).
    std::vector<Decision> at_issue;
    for (const auto &d : r.decisions)
        if (hx.plName(d.src) == "issue")
            at_issue.push_back(d);
    auto sigs = slc.analyze(lw, at_issue, {lw, sw});
    // LD_issue (Fig. 5): the load's stall decision depends on its own
    // rs1 (intrinsic) and an older store's rs1 (dynamic).
    bool intrinsic_rs1 = false, st_dyn_rs1 = false;
    for (const auto &s : sigs) {
        if (hx.plName(s.src) != "issue")
            continue;
        for (const auto &ti : s.inputs) {
            if (ti.instr == lw && ti.type == slc::TxType::Intrinsic &&
                ti.op == slc::Operand::Rs1)
                intrinsic_rs1 = true;
            if (ti.instr == sw && ti.type == slc::TxType::DynamicOlder &&
                ti.op == slc::Operand::Rs1)
                st_dyn_rs1 = true;
        }
    }
    EXPECT_TRUE(intrinsic_rs1);
    EXPECT_TRUE(st_dyn_rs1);
}

TEST(McvaFormal, ComStbChannelFlagsYoungerLoad)
{
    // The paper's novel channel: a committed store's drain decision
    // depends on a YOUNGER in-flight load's address operand.
    Harness hx(buildMcva());
    MuPathSynthesizer synth(hx, fastCfg());
    slc::SynthLcConfig lcfg;
    lcfg.budget.maxConflicts = 1000;
    lcfg.simRuns = 300;
    lcfg.testIntrinsic = false; // scope to the younger-transmitter type
    lcfg.testDynamicOlder = false;
    lcfg.testStatic = false;
    slc::SynthLc slc(hx, lcfg);
    InstrId lw = hx.duv().instrId("LW");
    InstrId sw = hx.duv().instrId("SW");
    InstrPaths r = synth.synthesize(sw);
    // Scope the analysis to the committed-store-buffer decision source.
    std::vector<Decision> at_com;
    for (const auto &d : r.decisions)
        if (hx.plName(d.src) == "comSTB")
            at_com.push_back(d);
    auto sigs = slc.analyze(sw, at_com, {lw});
    bool younger_ld = false;
    for (const auto &s : sigs)
        for (const auto &ti : s.inputs)
            if (ti.instr == lw &&
                ti.type == slc::TxType::DynamicYounger)
                younger_ld = true;
    EXPECT_TRUE(younger_ld);
}
