/**
 * @file
 * End-to-end tests of RTL2MμPATH on the Tiny3 cores: DUV/IUV PL
 * reachability, pruning facts, Reachable PL Sets, concrete schedules,
 * revisit classification, HB edges, revisit counts, and decisions.
 */

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>

#include "designs/tiny3.hh"
#include "obs/progress.hh"
#include "rtl2mupath/synth.hh"

using namespace rmp;
using namespace rmp::designs;
using namespace rmp::r2m;
using namespace rmp::uhb;

namespace
{

struct R2mTiny3 : public ::testing::Test
{
    R2mTiny3() : hx(buildTiny3()), synth(hx) {}
    Harness hx;
    MuPathSynthesizer synth;

    PlId
    plByName(const std::string &n) const
    {
        for (PlId p = 0; p < hx.numPls(); p++)
            if (hx.plName(p) == n)
                return p;
        return kNoPl;
    }
    std::set<std::string>
    names(const std::set<PlId> &pls) const
    {
        std::set<std::string> out;
        for (PlId p : pls)
            out.insert(hx.plName(p));
        return out;
    }
};

} // namespace

TEST_F(R2mTiny3, AllFourPlsReachableOnDuv)
{
    auto pls = synth.duvPls();
    EXPECT_EQ(pls.size(), 4u);
}

TEST_F(R2mTiny3, AddDoesNotReachMulUnit)
{
    auto pls = synth.iuvPls(hx.duv().instrId("ADD"));
    std::set<std::string> got;
    for (PlId p : pls)
        got.insert(hx.plName(p));
    EXPECT_EQ(got, (std::set<std::string>{"IF", "EX", "WB"}));
}

TEST_F(R2mTiny3, MulReachesAllPls)
{
    auto pls = synth.iuvPls(hx.duv().instrId("MUL"));
    EXPECT_EQ(pls.size(), 4u);
}

TEST_F(R2mTiny3, AddPruneFactsAllMandatory)
{
    InstrId add = hx.duv().instrId("ADD");
    auto facts = synth.pruneFacts(add, synth.iuvPls(add));
    for (size_t i = 0; i < facts.iuvPls.size(); i++)
        EXPECT_TRUE(facts.mandatory[i])
            << hx.plName(facts.iuvPls[i]) << " should be mandatory";
    // With everything mandatory there is exactly one candidate set.
    auto cands = synth.enumerateCandidateSets(facts);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].size(), 3u);
}

TEST_F(R2mTiny3, AddHasSingleUPath)
{
    InstrPaths r = synth.synthesize(hx.duv().instrId("ADD"));
    ASSERT_EQ(r.paths.size(), 1u);
    EXPECT_EQ(names(r.paths[0].plSet),
              (std::set<std::string>{"IF", "EX", "WB"}));
}

TEST_F(R2mTiny3, AddScheduleIsPipelined)
{
    InstrPaths r = synth.synthesize(hx.duv().instrId("ADD"));
    ASSERT_EQ(r.paths.size(), 1u);
    const UPath &p = r.paths[0];
    // Latency 3 (no stall witness) or 4 (stalled); the witness may be
    // either, but the schedule must start at IF and end at WB.
    ASSERT_GE(p.latency(), 3u);
    EXPECT_EQ(p.schedule.front(),
              std::vector<PlId>{plByName("IF")});
    EXPECT_EQ(p.schedule.back(),
              std::vector<PlId>{plByName("WB")});
}

TEST_F(R2mTiny3, AddIfStageMayBeRevisitedConsecutively)
{
    // The stall behind a MUL revisits IF consecutively; EX and WB never.
    InstrPaths r = synth.synthesize(hx.duv().instrId("ADD"));
    ASSERT_EQ(r.paths.size(), 1u);
    const UPath &p = r.paths[0];
    EXPECT_EQ(p.revisit.at(plByName("IF")), Revisit::Consecutive);
    EXPECT_EQ(p.revisit.at(plByName("EX")), Revisit::None);
    EXPECT_EQ(p.revisit.at(plByName("WB")), Revisit::None);
}

TEST_F(R2mTiny3, AddDecisionsAtIF)
{
    InstrPaths r = synth.synthesize(hx.duv().instrId("ADD"));
    auto srcs = r.decisionSources();
    ASSERT_EQ(srcs.size(), 1u);
    EXPECT_EQ(hx.plName(srcs[0]), "IF");
    // Two decisions: stay in IF, or advance to EX.
    std::set<std::set<std::string>> dsts;
    for (const auto &d : r.decisions) {
        std::set<std::string> dn;
        for (PlId q : d.dst)
            dn.insert(hx.plName(q));
        dsts.insert(dn);
    }
    EXPECT_TRUE(dsts.count({"IF"}));
    EXPECT_TRUE(dsts.count({"EX"}));
}

TEST_F(R2mTiny3, MulDecisionsIncludeExUnit)
{
    InstrPaths r = synth.synthesize(hx.duv().instrId("MUL"));
    ASSERT_EQ(r.paths.size(), 1u);
    EXPECT_EQ(names(r.paths[0].plSet),
              (std::set<std::string>{"IF", "EX", "mulU", "WB"}));
    // EX (and mulU) are decision sources: continue in the unit or retire.
    auto srcs = r.decisionSources();
    std::set<std::string> src_names;
    for (PlId s : srcs)
        src_names.insert(hx.plName(s));
    EXPECT_TRUE(src_names.count("IF"));
    EXPECT_TRUE(src_names.count("EX"));
}

TEST_F(R2mTiny3, AddHasHbEdgesAlongPipeline)
{
    InstrPaths r = synth.synthesize(hx.duv().instrId("ADD"));
    ASSERT_EQ(r.paths.size(), 1u);
    bool if_ex = false, ex_wb = false;
    for (const auto &e : r.paths[0].edges) {
        if (hx.plName(e.from) == "IF" && hx.plName(e.to) == "EX")
            if_ex = true;
        if (hx.plName(e.from) == "EX" && hx.plName(e.to) == "WB")
            ex_wb = true;
    }
    EXPECT_TRUE(if_ex);
    EXPECT_TRUE(ex_wb);
}

TEST_F(R2mTiny3, StatsAreTallied)
{
    synth.synthesize(hx.duv().instrId("NOP"));
    uint64_t total = 0;
    for (const auto &st : synth.stepStats())
        total += st.queries;
    EXPECT_GT(total, 10u);
}

TEST_F(R2mTiny3, ProgressReportsEveryCoverStep)
{
    // Every step that issues covers reports its progress, and its last
    // update counts every cover of the step: the all-SAT enumeration and
    // the closure covers of steps 4-7 included. The configuration is
    // that of `rmp prove tiny3`.
    struct Recorder : obs::ProgressSink
    {
        std::mutex mu;
        std::map<std::string, uint64_t> lastDone;
        void
        update(const obs::Progress &p) override
        {
            std::lock_guard<std::mutex> lock(mu);
            lastDone[p.phase] = p.done;
        }
    } rec;
    SynthesisConfig cfg;
    cfg.budget.maxConflicts = 20'000;
    cfg.closureChecks = true;
    MuPathSynthesizer prove(hx, cfg);
    std::vector<InstrId> all;
    for (size_t i = 0; i < hx.duv().instrs.size(); i++)
        all.push_back(static_cast<InstrId>(i));
    {
        obs::ScopedProgressSink scoped(&rec);
        prove.synthesizeAll(all);
    }
    size_t steps = 0;
    for (const StepStats &st : prove.stepStats()) {
        if (st.queries == 0)
            continue;
        steps++;
        SCOPED_TRACE(st.step);
        auto it = rec.lastDone.find(st.step);
        if (it == rec.lastDone.end())
            ADD_FAILURE() << "no progress reported";
        else
            EXPECT_EQ(it->second, st.queries);
    }
    // Exploration, steps 1 and 2, and the all-SAT and closure steps.
    EXPECT_GE(steps, 7u);
}

TEST(R2mTiny3Counts, MulRevisitCountsBaselineVsZeroSkip)
{
    // Baseline: mulU always visited exactly 2 cycles.
    {
        Harness hx(buildTiny3());
        SynthesisConfig cfg;
        cfg.revisitCounts = true;
        cfg.maxRevisitCount = 4;
        MuPathSynthesizer synth(hx, cfg);
        InstrPaths r = synth.synthesize(hx.duv().instrId("MUL"));
        ASSERT_EQ(r.paths.size(), 1u);
        PlId mulu = 2;
        ASSERT_TRUE(r.paths[0].revisitCounts.count(mulu));
        EXPECT_EQ(r.paths[0].revisitCounts.at(mulu),
                  (std::vector<unsigned>{2}));
    }
    // Zero-skip: 1 or 2 cycles, operand dependent (Fig. 1 in miniature).
    {
        Harness hx(buildTiny3({.withZeroSkip = true}));
        SynthesisConfig cfg;
        cfg.revisitCounts = true;
        cfg.maxRevisitCount = 4;
        MuPathSynthesizer synth(hx, cfg);
        InstrPaths r = synth.synthesize(hx.duv().instrId("MUL"));
        ASSERT_EQ(r.paths.size(), 1u);
        PlId mulu = 2;
        ASSERT_TRUE(r.paths[0].revisitCounts.count(mulu));
        EXPECT_EQ(r.paths[0].revisitCounts.at(mulu),
                  (std::vector<unsigned>{1, 2}));
    }
}
