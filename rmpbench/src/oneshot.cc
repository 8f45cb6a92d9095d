/**
 * @file
 * The one-shot workloads. Each invocation is one fresh process that runs
 * the library's public entry points in the order the CLI does
 * (`rmp synth`, `rmp contracts`), split into a timed set-up phase
 * (elaboration, harness, synthesizer/SynthLc construction) and a timed
 * job phase (synthesis, analysis, derivation, rendering).
 *
 * mcva-synth      cold synthesizeAll of DIV, BEQ, SW on MiniCVA at CLI
 *                 defaults (budget 20000, semi-formal, 8 engine lanes).
 * contracts-tiny  the contracts flow (synthesizeAll + SynthLc + Table-I
 *                 derivation + Fig. 8 matrix) on tiny3, then tiny3-zs.
 */

#include <map>
#include <memory>
#include <set>

#include "analysis/fsmreach.hh"
#include "bench.hh"
#include "contracts/contracts.hh"
#include "designs/catalog.hh"
#include "ift/instrument.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "oneshot.hh"
#include "report/report.hh"
#include "rtl2mupath/synth.hh"
#include "synthlc/synthlc.hh"

namespace rmpbench
{

namespace
{

using namespace rmp;

/** Thread settings pinned for a 4-vCPU host. */
constexpr unsigned kJobs = 2;
constexpr unsigned kSimThreads = 2;

/** Public tallies summed over every pool and synthesizer of a run. */
struct Tallies
{
    exec::PoolStats pool;
    double step1S = 0, step4S = 0;
    uint64_t simRuns = 0;
    uint64_t upaths = 0, decisions = 0;
    uint64_t decided = 0, evaluated = 0;
    slc::SynthLcStats slc;
    uint64_t signatures = 0;

    void
    addPool(const exec::PoolStats &s)
    {
        pool.engine.queries += s.engine.queries;
        pool.engine.undetermined += s.engine.undetermined;
        pool.engine.staticPruned += s.engine.staticPruned;
        pool.engine.assumptionCoreHits += s.engine.assumptionCoreHits;
        pool.engine.auditReplayed += s.engine.auditReplayed;
        pool.engine.auditProofChecked += s.engine.auditProofChecked;
        pool.engine.auditMismatches += s.engine.auditMismatches;
        pool.sat.conflicts += s.sat.conflicts;
        pool.sat.propagations += s.sat.propagations;
        pool.sat.learnedClauses += s.sat.learnedClauses;
        pool.sat.gcPasses += s.sat.gcPasses;
        pool.coi.aigNodes += s.coi.aigNodes;
        pool.coi.satVars += s.coi.satVars;
        pool.cache.hits += s.cache.hits;
        pool.cache.misses += s.cache.misses;
        pool.lanesBuilt += s.lanesBuilt;
    }

    void
    addSynth(const r2m::MuPathSynthesizer &synth)
    {
        addPool(synth.pool().stats());
        const std::vector<r2m::StepStats> &st = synth.stepStats();
        step1S += st[1].seconds;
        step4S += st[4].seconds;
        simRuns += st[0].queries;
        // Row 0 counts simulation runs, not covers.
        for (size_t i = 1; i < st.size(); i++) {
            decided += st[i].reachable + st[i].unreachable;
            evaluated += st[i].queries;
        }
    }

    void
    addSlc(const slc::SynthLc &lc)
    {
        addPool(lc.pool().stats());
        const slc::SynthLcStats &s = lc.stats();
        slc.queries += s.queries;
        slc.reachable += s.reachable;
        slc.unreachable += s.unreachable;
        slc.undetermined += s.undetermined;
        slc.simHits += s.simHits;
        slc.seconds += s.seconds;
        decided += s.reachable + s.unreachable;
        evaluated += s.queries;
    }
};

/** Median of a log2 histogram, in the histogram's unit (bucket b holds
 *  [2^b, 2^(b+1)); the estimate is the bucket's geometric middle). */
double
histP50(const obs::Histogram &h)
{
    uint64_t n = h.count(), seen = 0;
    if (!n)
        return 0.0;
    for (unsigned b = 0; b < obs::Histogram::kBuckets; b++) {
        seen += h.bucket(b);
        if (2 * seen >= n)
            return b ? static_cast<double>(1ULL << b) * 1.4142135623730951
                     : 1.0;
    }
    return static_cast<double>(h.max());
}

/** Registry values the program records only with its obs switch on. */
std::string
registryJson()
{
    obs::Registry &r = obs::Registry::global();
    uint64_t busy = 0, clauses = 0;
    for (const obs::Sample &s : r.snapshot()) {
        if (s.name == "exec.lane_busy_ns")
            busy += static_cast<uint64_t>(s.value);
        if (s.name == "bmc.cnf_clauses")
            clauses += static_cast<uint64_t>(s.value);
    }
    const obs::Histogram &qw = r.histogram("exec.queue_wait_ns");
    const obs::Histogram &aw = r.histogram("exec.admission_wait_ns");
    report::JsonReport j;
    j.putRaw("queue_wait_p50_ns", num(histP50(qw)));
    j.put("queue_waits", qw.count());
    j.put("admission_wait_ns", aw.sum());
    j.put("lane_busy_ns", busy);
    j.put("cnf_clauses", clauses);
    j.put("sim_cycles", r.counter("sim.cycles").value());
    j.put("sim_runs", r.counter("sim.runs").value());
    j.put("covers_pruned", r.counter("absint.covers_pruned").value());
    return j.str();
}

std::string
talliesJson(const Tallies &t)
{
    const exec::PoolStats &p = t.pool;
    report::JsonReport j;
    j.put("sat_conflicts", p.sat.conflicts);
    j.put("sat_propagations", p.sat.propagations);
    j.put("sat_learned", p.sat.learnedClauses);
    j.put("sat_gc_passes", p.sat.gcPasses);
    j.put("bmc_queries", p.engine.queries);
    j.put("bmc_undetermined", p.engine.undetermined);
    j.put("bmc_core_hits", p.engine.assumptionCoreHits);
    j.put("bmc_static_pruned", p.engine.staticPruned);
    j.put("bmc_aig_nodes", p.coi.aigNodes);
    j.put("exec_lanes_built", static_cast<uint64_t>(p.lanesBuilt));
    j.put("exec_cache_hits", p.cache.hits);
    j.put("exec_cache_misses", p.cache.misses);
    j.putRaw("r2m_step1_s", num(t.step1S));
    j.putRaw("r2m_step4_s", num(t.step4S));
    j.put("r2m_sim_runs", t.simRuns);
    j.put("r2m_upaths", t.upaths);
    j.put("r2m_decisions", t.decisions);
    j.put("slc_queries", t.slc.queries);
    j.put("slc_sim_hits", t.slc.simHits);
    j.put("slc_undetermined", t.slc.undetermined);
    j.put("contracts_signatures", t.signatures);
    j.put("audit_replayed", p.engine.auditReplayed);
    j.put("audit_proof_checked", p.engine.auditProofChecked);
    j.put("audit_mismatches", p.engine.auditMismatches);
    return j.str();
}

/** The CLI's synthesis config (rmp_cli.cpp synthConfig) at its
 *  defaults, with the pinned thread counts and the run's seed. */
r2m::SynthesisConfig
synthConfig(const OneshotArgs &a)
{
    r2m::SynthesisConfig c;
    c.budget.maxConflicts = 20'000;
    c.closureChecks = false;
    c.jobs = kJobs;
    c.explore.threads = kSimThreads;
    c.explore.seed = a.seed;
    c.auditReplay = c.auditProof = a.audit;
    return c;
}

/** cmdContracts's SynthLc config, likewise. */
slc::SynthLcConfig
slcConfig(const OneshotArgs &a)
{
    slc::SynthLcConfig c;
    c.budget.maxConflicts = 20'000;
    c.jobs = kJobs;
    c.simBackend = sim::SimBackend::Simd;
    c.simSeed = a.seed;
    c.auditReplay = c.auditProof = a.audit;
    return c;
}

std::unique_ptr<designs::Harness>
buildHarness(const std::string &duv)
{
    Scope s("designs.build");
    return std::make_unique<designs::Harness>(*designs::buildDuv(duv));
}

std::vector<uhb::InstrId>
instrIds(const designs::Harness &hx, const std::vector<std::string> &names)
{
    std::vector<uhb::InstrId> ids;
    for (const std::string &n : names)
        ids.push_back(hx.duv().instrId(n));
    return ids;
}

/** Does some μPATH of @p r visit the PL named @p pl? */
bool
reaches(const designs::Harness &hx, const uhb::InstrPaths &r,
        const std::string &pl)
{
    for (const uhb::UPath &p : r.paths)
        for (uhb::PlId q : p.plSet)
            if (hx.plName(q) == pl)
                return true;
    return false;
}

/** Distinct numbers of cycles the μPATHs of @p r spend at @p pl. */
std::set<size_t>
occupancies(const designs::Harness &hx, const uhb::InstrPaths &r,
            const std::string &pl)
{
    std::set<size_t> out;
    for (const uhb::UPath &p : r.paths) {
        size_t n = 0;
        for (const std::vector<uhb::PlId> &cycle : p.schedule)
            for (uhb::PlId q : cycle)
                n += hx.plName(q) == pl;
        if (n)
            out.insert(n);
    }
    return out;
}

struct Run
{
    uint64_t setupNs = 0, jobNs = 0;
    /** Traced runs only: separate timed calls of the static-facts and
     *  IFT entry points, which the flow runs inside constructors. */
    uint64_t factsNs = 0, instrumentNs = 0;
    std::string output; ///< everything the flow renders, for the digest
    std::vector<Check> checks;
    Tallies tallies;
};

/**
 * Time analysis::staticFacts and ift::instrument once more on @p hx's
 * design, with the inputs the synthesizer and the CLI's IFT lint use.
 * Runs after the job, outside every timed phase.
 */
void
probeLayers(const designs::Harness &hx, Run &run)
{
    std::vector<SigId> ctrl;
    for (const uhb::MicroFsm &fsm : hx.duv().fsms)
        for (SigId v : fsm.vars)
            ctrl.push_back(v);
    uint64_t t0 = nowNs();
    analysis::AbsFacts facts = analysis::staticFacts(hx.design(), ctrl);
    run.factsNs += nowNs() - t0;
    const uhb::DuvInfo &info = hx.duv();
    if (info.rs1Reg == kNoSig || info.rs2Reg == kNoSig)
        return;
    ift::IftConfig icfg;
    icfg.taintSources = {info.rs1Reg, info.rs2Reg};
    icfg.blockRegs = info.arfRegs;
    icfg.blockRegs.insert(icfg.blockRegs.end(), info.amemRegs.begin(),
                          info.amemRegs.end());
    icfg.persistentRegs = info.persistentRegs;
    icfg.txmGone = hx.txmGone;
    t0 = nowNs();
    ift::Instrumented inst = ift::instrument(hx.design(), icfg);
    run.instrumentNs += nowNs() - t0;
}

void
mcvaSynth(const OneshotArgs &a, Run &run)
{
    r2m::SynthesisConfig cfg = synthConfig(a);
    Scope setup("setup");
    std::unique_ptr<designs::Harness> hx = buildHarness("mcva");
    std::unique_ptr<r2m::MuPathSynthesizer> synth;
    {
        Scope s("r2m.construct");
        synth = std::make_unique<r2m::MuPathSynthesizer>(*hx, cfg);
    }
    run.setupNs += static_cast<uint64_t>(setup.end() * 1e9);
    if (a.setupOnly)
        return;

    std::vector<uhb::InstrId> ids = instrIds(*hx, {"DIV", "BEQ", "SW"});
    std::map<uhb::InstrId, uhb::InstrPaths> all;
    Scope job("job");
    {
        Scope s("r2m.synthesizeAll");
        all = synth->synthesizeAll(ids);
    }
    {
        Scope s("report.render");
        run.output = report::renderSynthAll(*hx, ids, all);
    }
    run.jobNs += static_cast<uint64_t>(job.end() * 1e9);

    run.tallies.addSynth(*synth);
    for (const auto &[id, r] : all) {
        run.tallies.upaths += r.paths.size();
        run.tallies.decisions += r.decisions.size();
    }
    if (a.obs)
        probeLayers(*hx, run);
    const uhb::InstrPaths &div = all.at(ids[0]);
    const uhb::InstrPaths &beq = all.at(ids[1]);
    const uhb::InstrPaths &sw = all.at(ids[2]);
    run.checks.push_back({"mcva.all_iuvs_synthesized", all.size() == 3,
                          std::to_string(all.size()) + " of 3"});
    run.checks.push_back({"mcva.beq_reaches_scbCmt_and_scbExcp",
                          reaches(*hx, beq, "scbCmt") &&
                              reaches(*hx, beq, "scbExcp"),
                          std::to_string(beq.paths.size()) + " BEQ paths"});
    std::set<size_t> occ = occupancies(*hx, div, "divU");
    run.checks.push_back({"mcva.div_divU_occupancy_varies", occ.size() >= 2,
                          std::to_string(occ.size()) +
                              " distinct divU occupancies"});
    run.checks.push_back({"mcva.sw_reaches_comSTB",
                          reaches(*hx, sw, "comSTB"),
                          std::to_string(sw.paths.size()) + " SW paths"});
}

/** cmdContracts on one DUV; returns its signature count. */
size_t
contractsOn(const OneshotArgs &a, const std::string &duv, Run &run)
{
    Scope setup("setup");
    std::unique_ptr<designs::Harness> hx = buildHarness(duv);
    std::unique_ptr<r2m::MuPathSynthesizer> synth;
    std::unique_ptr<slc::SynthLc> lc;
    {
        Scope s("r2m.construct");
        synth = std::make_unique<r2m::MuPathSynthesizer>(*hx, synthConfig(a));
    }
    {
        Scope s("slc.construct");
        lc = std::make_unique<slc::SynthLc>(*hx, slcConfig(a));
    }
    run.setupNs += static_cast<uint64_t>(setup.end() * 1e9);
    if (a.setupOnly)
        return 0;

    std::vector<std::string> names;
    for (const auto &ins : hx->duv().instrs)
        names.push_back(ins.name);
    if (names.size() > 5)
        names.resize(5);
    std::vector<uhb::InstrId> ids = instrIds(*hx, names);
    ct::AnalysisDb db;
    db.hx = hx.get();
    Scope job("job");
    std::map<uhb::InstrId, uhb::InstrPaths> all;
    {
        Scope s("r2m.synthesizeAll");
        all = synth->synthesizeAll(ids);
    }
    for (uhb::InstrId i : ids) {
        uhb::InstrPaths paths = std::move(all.at(i));
        std::vector<slc::LeakageSignature> sigs;
        {
            Scope s("slc.analyze");
            sigs = lc->analyze(i, paths.decisions, ids);
        }
        for (auto &s : sigs)
            db.signatures.push_back(std::move(s));
        db.paths[i] = std::move(paths);
    }
    std::string contracts, matrix;
    {
        Scope s("contracts.derive");
        contracts = ct::renderContracts(db);
    }
    {
        Scope s("report.render");
        matrix = report::renderFig8Matrix(db);
    }
    run.jobNs += static_cast<uint64_t>(job.end() * 1e9);

    run.output +=
        report::renderSynthAll(*hx, ids, db.paths) + contracts + matrix;
    if (a.obs)
        probeLayers(*hx, run);
    run.tallies.addSynth(*synth);
    run.tallies.addSlc(*lc);
    run.tallies.signatures += db.signatures.size();
    for (const auto &[id, r] : db.paths) {
        run.tallies.upaths += r.paths.size();
        run.tallies.decisions += r.decisions.size();
    }
    if (duv == "tiny3-zs") {
        ct::CtContract ctc = ct::deriveConstantTime(db);
        bool mulRs1 = ctc.transmitters.size() == 1 &&
                      hx->duv().instrs[ctc.transmitters[0].instr].name ==
                          "MUL" &&
                      ctc.transmitters[0].rs1Unsafe &&
                      !ctc.transmitters[0].rs2Unsafe;
        run.checks.push_back({"tiny3-zs.ct_transmitter_is_MUL.rs1", mulRs1,
                              std::to_string(ctc.transmitters.size()) +
                                  " CT transmitter(s)"});
    }
    return db.signatures.size();
}

void
contractsTiny(const OneshotArgs &a, Run &run)
{
    size_t t3 = contractsOn(a, "tiny3", run);
    size_t zs = contractsOn(a, "tiny3-zs", run);
    if (a.setupOnly)
        return;
    run.checks.push_back({"tiny3.zero_signatures", t3 == 0,
                          std::to_string(t3) + " signature(s)"});
    run.checks.push_back({"tiny3-zs.six_signatures", zs == 6,
                          std::to_string(zs) + " signature(s)"});
}

} // anonymous namespace

int
runOneshot(const OneshotArgs &a)
{
    // Align the program's trace clock with ours: its timestamps count
    // from a private epoch, and a marker span recorded between two of our
    // clock reads pins that epoch from above (program spans then read at
    // most ~100 ns late, never early, so they nest inside the harness
    // span that made the call).
    uint64_t markerEnd = 0;
    if (a.obs) {
        obs::setEnabled(true);
        {
            obs::Span marker("rmpbench.epoch", "rmpbench");
        }
        markerEnd = obs::nowNs();
    }
    Run run;
    if (a.workload == "mcva-synth")
        mcvaSynth(a, run);
    else if (a.workload == "contracts-tiny")
        contractsTiny(a, run);
    else {
        std::fprintf(stderr, "rmpbench: unknown one-shot workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }
    if (!a.setupOnly && a.audit)
        run.checks.push_back(
            {"audit.zero_mismatches",
             run.tallies.pool.engine.auditMismatches == 0,
             std::to_string(run.tallies.pool.engine.auditReplayed) +
                 " replayed, " +
                 std::to_string(run.tallies.pool.engine.auditProofChecked) +
                 " proof-checked, " +
                 std::to_string(run.tallies.pool.engine.auditMismatches) +
                 " mismatches"});

    report::JsonReport j;
    j.put("workload", a.workload);
    j.put("seed", a.seed);
    j.put("setup_ns", run.setupNs);
    j.put("job_ns", run.jobNs);
    j.put("maxrss_kb", maxRssKb());
    j.put("decided", run.tallies.decided);
    j.put("evaluated", run.tallies.evaluated);
    j.put("digest", a.setupOnly ? std::string() : digest(run.output));
    j.putRaw("checks", checksJson(run.checks));
    j.putRaw("tallies", talliesJson(run.tallies));
    if (a.obs) {
        obs::setEnabled(false);
        j.putRaw("registry", registryJson());
        j.put("facts_ns", run.factsNs);
        j.put("instrument_ns", run.instrumentNs);
        j.put("marker_end_ns", markerEnd);
        if (!a.traceOut.empty() && !obs::exportChromeTrace(a.traceOut)) {
            std::fprintf(stderr, "rmpbench: cannot write %s\n",
                         a.traceOut.c_str());
            return 1;
        }
    }
    if (!a.spansOut.empty() && !spanLog().write(a.spansOut)) {
        std::fprintf(stderr, "rmpbench: cannot write %s\n",
                     a.spansOut.c_str());
        return 1;
    }
    std::printf("%s\n", j.str().c_str());
    return 0;
}

} // namespace rmpbench
