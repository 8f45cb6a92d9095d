#include "bmc/engine.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace rmp::bmc
{

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Reachable: return "reachable";
      case Outcome::Unreachable: return "unreachable";
      case Outcome::Undetermined: return "undetermined";
    }
    return "?";
}

Engine::Engine(const Design &design, const EngineConfig &config)
    : d(design), cfg(config),
      ctx_(design, config.auditProof, config.captureProof)
{
    rmp_assert(cfg.bound >= 1, "bound must be positive");
    ctx_.unrolling.ensureFrames(cfg.bound - 1);
}

sat::Lit
Engine::satLit(AigLit lit)
{
    // Iteratively Tseitin-encode the cone under `lit`.
    sat::Solver &solver = ctx_.solver;
    std::vector<int32_t> &nodeVar = ctx_.nodeVar;
    const Aig &g = ctx_.unrolling.aig();
    uint32_t root = aigNode(lit);
    if (nodeVar.size() < g.numNodes())
        nodeVar.resize(g.numNodes(), -1);
    std::vector<uint32_t> stack{root};
    while (!stack.empty()) {
        uint32_t n = stack.back();
        if (nodeVar[n] >= 0) {
            stack.pop_back();
            continue;
        }
        if (n == 0) {
            // Constant-false node: a var pinned to false.
            sat::Var v = solver.newVar();
            solver.addClause(~sat::mkLit(v));
            nodeVar[0] = v;
            stack.pop_back();
            continue;
        }
        if (g.isInput(n)) {
            nodeVar[n] = solver.newVar();
            stack.pop_back();
            continue;
        }
        uint32_t n0 = aigNode(g.fanin0(n));
        uint32_t n1 = aigNode(g.fanin1(n));
        bool ready = true;
        if (nodeVar[n0] < 0) {
            stack.push_back(n0);
            ready = false;
        }
        if (nodeVar[n1] < 0) {
            stack.push_back(n1);
            ready = false;
        }
        if (!ready)
            continue;
        sat::Var v = solver.newVar();
        sat::Lit lv = sat::mkLit(v);
        sat::Lit la(nodeVar[n0], aigSign(g.fanin0(n)));
        sat::Lit lb(nodeVar[n1], aigSign(g.fanin1(n)));
        // v <-> la & lb
        solver.addClause(~lv, la);
        solver.addClause(~lv, lb);
        solver.addClause(lv, ~la, ~lb);
        nodeVar[n] = v;
        stack.pop_back();
    }
    return sat::Lit(nodeVar[root], aigSign(lit));
}

CoverResult
Engine::cover(const prop::ExprRef &seq,
              const std::vector<prop::ExprRef> &assumes)
{
    return run(seq, assumes, -1);
}

CoverResult
Engine::coverAt(const prop::ExprRef &seq,
                const std::vector<prop::ExprRef> &assumes, unsigned frame)
{
    return run(seq, assumes, static_cast<int>(frame));
}

Engine::ProveOutcome
Engine::prove(const prop::ExprRef &invariant,
              const std::vector<prop::ExprRef> &assumes, Witness *cex)
{
    CoverResult r = cover(prop::pNot(invariant), assumes);
    switch (r.outcome) {
      case Outcome::Unreachable:
        return ProveOutcome::Proven;
      case Outcome::Reachable:
        if (cex)
            *cex = std::move(r.witness);
        return ProveOutcome::Falsified;
      case Outcome::Undetermined:
        return ProveOutcome::Undetermined;
    }
    return ProveOutcome::Undetermined;
}

CoverResult
Engine::run(const prop::ExprRef &seq,
            const std::vector<prop::ExprRef> &assumes, int fixed_frame)
{
    obs::Span span("bmc-cover", "bmc");
    auto t0 = std::chrono::steady_clock::now();

    Unrolling &unrolling = ctx_.unrolling;
    Aig &g = unrolling.aig();

    // Cover literal: OR over permitted start frames.
    std::vector<AigLit> starts;
    if (fixed_frame >= 0) {
        starts.push_back(
            prop::compile(seq, unrolling, fixed_frame, cfg.bound));
    } else {
        for (unsigned t = 0; t < cfg.bound; t++)
            starts.push_back(prop::compile(seq, unrolling, t, cfg.bound));
    }
    AigLit cover_lit = g.mkOrN(starts);

    // Assumption literals: each assume holds at every frame. A cover that
    // folds to constant false is Unreachable whatever the assumes say, so
    // its assumes are neither compiled nor encoded into the solver.
    std::vector<sat::Lit> assumptions;
    bool vacuous = false;
    for (const auto &a : assumes) {
        if (cover_lit == kFalse)
            break;
        unsigned last = cfg.bound > a->depth() ? cfg.bound - a->depth() : 1;
        for (unsigned t = 0; t < last && !vacuous; t++) {
            AigLit l = prop::compile(a, unrolling, t, cfg.bound);
            if (l == kTrue)
                continue;
            if (l == kFalse) {
                // Vacuous: assumes are contradictory within the bound.
                vacuous = true;
                break;
            }
            assumptions.push_back(satLit(l));
        }
        if (vacuous)
            break;
    }

    CoverResult res;
    bool core_hit = false;
    if (vacuous || cover_lit == kFalse) {
        res.outcome = Outcome::Unreachable;
    } else {
        // The shared assume literals go first and the per-query cover
        // literal LAST: successive queries on the engine then present
        // the solver with a common assumption prefix, and its trail saving
        // keeps the assumes' propagation warm across the whole sweep
        // instead of re-deriving it per cover.
        assumptions.push_back(satLit(cover_lit));

        // A remembered failed-assumption core that is a subset of this
        // query's assumption set decides it without searching: the core
        // clause (negations of the core literals), already in this
        // instance's proof trace, is falsified outright by these
        // assumptions, so DRAT closure below still discharges the
        // verdict.
        if (!ctx_.failedCores.empty()) {
            std::vector<sat::Lit> sorted = assumptions;
            std::sort(sorted.begin(), sorted.end());
            for (const auto &core : ctx_.failedCores)
                if (std::includes(sorted.begin(), sorted.end(),
                                  core.begin(), core.end())) {
                    core_hit = true;
                    break;
                }
        }
        sat::SatResult sres =
            core_hit ? sat::SatResult::Unsat
                     : ctx_.solver.solve(assumptions, cfg.budget);
        switch (sres) {
          case sat::SatResult::Sat:
            res.outcome = Outcome::Reachable;
            res.witness = extractWitness(seq, assumes, &res.audit);
            break;
          case sat::SatResult::Unsat:
            res.outcome = Outcome::Unreachable;
            // Stamp the verdict with its proof prefix: the recorder's
            // counts at this instant plus this query's assumptions are
            // exactly what an offline checker needs to re-close it.
            if (ctx_.recorder) {
                res.proof.valid = true;
                res.proof.inputCount = ctx_.recorder->inputs().clauses.size();
                res.proof.stepCount = ctx_.recorder->log().size();
                res.proof.assumptions = assumptions;
            }
            // Trust-but-verify: close this unsat frame against the
            // solver's DRAT trace. ok() guards the additions (every
            // learned clause was RUP when derived); checkUnsat() confirms
            // clauses + this query's assumption units propagate to a
            // conflict.
            if (ctx_.drat) {
                res.audit.proofChecked = true;
                if (!ctx_.drat->ok()) {
                    res.audit.mismatch = true;
                    res.audit.detail = "DRAT audit: " +
                                       ctx_.drat->firstFailure();
                } else if (!ctx_.drat->checkUnsat(assumptions)) {
                    res.audit.mismatch = true;
                    res.audit.detail =
                        "DRAT audit: unsat verdict not closed by unit "
                        "propagation over the logged clause set";
                }
            }
            // Remember the failed-assumption core (analyzeFinal) so
            // future covers whose assumption sets repeat it skip the
            // solver entirely. Bounded and deduplicated; sound under
            // later clause additions (unsat is monotone in the
            // formula).
            if (!core_hit) {
                constexpr size_t kMaxFailedCores = 64;
                const std::vector<sat::Lit> &fc =
                    ctx_.solver.failedAssumptions();
                if (!fc.empty() &&
                    ctx_.failedCores.size() < kMaxFailedCores) {
                    std::vector<sat::Lit> core = fc;
                    std::sort(core.begin(), core.end());
                    core.erase(std::unique(core.begin(), core.end()),
                               core.end());
                    if (std::find(ctx_.failedCores.begin(),
                                  ctx_.failedCores.end(),
                                  core) == ctx_.failedCores.end())
                        ctx_.failedCores.push_back(std::move(core));
                }
            }
            break;
          case sat::SatResult::Undetermined:
            res.outcome = Outcome::Undetermined;
            break;
        }
    }

    auto t1 = std::chrono::steady_clock::now();
    res.seconds = std::chrono::duration<double>(t1 - t0).count();
    res.aigNodes = g.numNodes();
    res.satVars = static_cast<uint64_t>(ctx_.solver.numVars());
    stats_.queries++;
    stats_.totalSeconds += res.seconds;
    if (core_hit)
        stats_.assumptionCoreHits++;
    switch (res.outcome) {
      case Outcome::Reachable: stats_.reachable++; break;
      case Outcome::Unreachable: stats_.unreachable++; break;
      case Outcome::Undetermined: stats_.undetermined++; break;
    }
    if (res.audit.replayed)
        stats_.auditReplayed++;
    if (res.audit.proofChecked)
        stats_.auditProofChecked++;
    if (res.audit.mismatch) {
        stats_.auditMismatches++;
        warn(strfmt("verdict audit mismatch (%s query): %s",
                    outcomeName(res.outcome), res.audit.detail.c_str()));
    }
    if (span.active()) {
        span.arg("outcome", static_cast<uint64_t>(res.outcome));
        span.arg("aig_nodes", res.aigNodes);
        span.arg("sat_vars", res.satVars);
        span.arg("cnf_clauses", ctx_.solver.numClauses());
        obs::Registry &reg = obs::Registry::global();
        reg.counter("bmc.queries",
                    {{"outcome", outcomeName(res.outcome)}})
            .add(1);
        reg.histogram("bmc.query_ns")
            .record(static_cast<uint64_t>(res.seconds * 1e9));
        reg.gauge("bmc.aig_nodes").set(static_cast<int64_t>(res.aigNodes));
        reg.gauge("bmc.cnf_clauses")
            .set(static_cast<int64_t>(ctx_.solver.numClauses()));
        reg.gauge("bmc.sat_vars").set(static_cast<int64_t>(res.satVars));
        if (core_hit)
            reg.counter("bmc.assumption_core_hits").add(1);
        if (res.audit.replayed)
            reg.counter("audit.replayed").add(1);
        if (res.audit.proofChecked)
            reg.counter("audit.proof_checked").add(1);
        if (res.audit.mismatch)
            reg.counter("audit.mismatch").add(1);
    }
    return res;
}

CoiStats
Engine::coiStats() const
{
    return CoiStats{ctx_.unrolling.aig().numNodes(),
                    static_cast<uint64_t>(ctx_.solver.numVars())};
}

ReplayCheck
replayWitness(const Design &design, const std::vector<InputMap> &inputs,
              const prop::ExprRef &seq,
              const std::vector<prop::ExprRef> &assumes, unsigned bound)
{
    ReplayCheck rc;
    Simulator sim(design);
    sim.reserveTrace(std::min<size_t>(bound, inputs.size()));
    for (unsigned t = 0; t < bound && t < inputs.size(); t++)
        sim.step(inputs[t]);
    rc.trace = sim.trace();
    for (unsigned t = 0; t < bound && !rc.matched; t++) {
        if (prop::evalOnTrace(seq, rc.trace, t)) {
            rc.matched = true;
            rc.matchFrame = t;
        }
    }
    for (const auto &a : assumes) {
        unsigned last = bound > a->depth() ? bound - a->depth() : 1;
        for (unsigned t = 0; t < last && rc.assumesHold; t++) {
            if (!prop::evalOnTrace(a, rc.trace, t)) {
                rc.assumesHold = false;
                rc.failCycle = t;
            }
        }
        if (!rc.assumesHold)
            break;
    }
    return rc;
}

Witness
Engine::extractWitness(const prop::ExprRef &seq,
                       const std::vector<prop::ExprRef> &assumes,
                       VerdictAudit *audit)
{
    obs::Span span("witness-extract", "bmc");
    if (span.active()) {
        span.arg("bound", cfg.bound);
        obs::Registry::global().counter("bmc.witnesses").add(1);
    }
    Witness w;
    w.inputs.resize(cfg.bound);
    for (unsigned t = 0; t < cfg.bound; t++) {
        for (SigId in : d.inputs()) {
            uint64_t val = 0;
            unsigned width = d.cell(in).width;
            for (unsigned bit = 0; bit < width; bit++) {
                AigLit l = ctx_.unrolling.inputLit(t, in, bit);
                uint32_t n = aigNode(l);
                bool v = false;
                if (n < ctx_.nodeVar.size() && ctx_.nodeVar[n] >= 0)
                    v = ctx_.solver.modelValue(ctx_.nodeVar[n]) !=
                        aigSign(l);
                if (v)
                    val |= 1ULL << bit;
            }
            w.inputs[t][in] = val;
        }
    }
    // Independent soundness cross-check: replay the decoded stimulus on
    // the interpreted simulator and confirm the sequence matches and all
    // assumes hold. The replayed trace is the witness's trace, the same
    // one a query-cache or verdict-store hit re-derives from the inputs.
    ReplayCheck rc = replayWitness(d, w.inputs, seq, assumes, cfg.bound);
    if (cfg.auditReplay && audit) {
        // Audit mode records the mismatch for the caller to report and
        // quarantine; hard-asserting here would take down a whole
        // synthesis run on the first solver defect found.
        audit->replayed = true;
        if (!rc.ok()) {
            audit->mismatch = true;
            audit->detail =
                !rc.matched
                    ? "witness replay: cover did not match on the "
                      "simulator"
                    : strfmt("witness replay: assume violated at cycle %u",
                             rc.failCycle);
        }
    } else {
        rmp_assert(rc.matched, "witness replay: cover did not match");
        rmp_assert(rc.assumesHold,
                   "witness replay: assume violated at cycle %u",
                   rc.failCycle);
    }
    w.matchFrame = rc.matchFrame;
    w.trace = std::move(rc.trace);
    return w;
}

} // namespace rmp::bmc
