#include "bmc/engine.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/batch.hh"

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

StaticTern
staticEval(const Design &design, const analysis::AbsFacts &facts,
           const prop::ExprRef &e)
{
    using K = prop::ExprKind;
    switch (e->kind) {
      case K::True:
        return StaticTern::True;
      case K::SigEqConst: {
          const analysis::AbsVal &v = facts.of(e->sig);
          // Compare in-width bits only (the bit-blasted semantics:
          // sigEqConst never reads constant bits past the signal width).
          uint64_t mask = BitVec::maskOf(design.cell(e->sig).width);
          uint64_t c = e->value & mask;
          if (!v.admits(c))
              return StaticTern::False;
          if (v.known(mask) && v.cval() == c)
              return StaticTern::True;
          return StaticTern::Unknown;
      }
      case K::SigBit: {
          if (e->value >= design.cell(e->sig).width)
              return StaticTern::Unknown;
          const analysis::AbsVal &v = facts.of(e->sig);
          uint64_t bit = 1ULL << e->value;
          if (v.zeros & bit)
              return StaticTern::False;
          if (v.ones & bit)
              return StaticTern::True;
          return StaticTern::Unknown;
      }
      case K::Not:
        switch (staticEval(design, facts, e->a)) {
          case StaticTern::False: return StaticTern::True;
          case StaticTern::True: return StaticTern::False;
          case StaticTern::Unknown: return StaticTern::Unknown;
        }
        return StaticTern::Unknown;
      case K::And: {
          StaticTern a = staticEval(design, facts, e->a);
          StaticTern b = staticEval(design, facts, e->b);
          if (a == StaticTern::False || b == StaticTern::False)
              return StaticTern::False;
          if (a == StaticTern::True && b == StaticTern::True)
              return StaticTern::True;
          return StaticTern::Unknown;
      }
      case K::Or: {
          StaticTern a = staticEval(design, facts, e->a);
          StaticTern b = staticEval(design, facts, e->b);
          if (a == StaticTern::True || b == StaticTern::True)
              return StaticTern::True;
          if (a == StaticTern::False && b == StaticTern::False)
              return StaticTern::False;
          return StaticTern::Unknown;
      }
      case K::Delay: {
          // a ##k b: the facts are time-invariant, so a constant-false
          // child falsifies the sequence at every alignment. Never True:
          // the bounded semantics falsifies matches whose delayed child
          // would land past the unrolling bound.
          StaticTern a = staticEval(design, facts, e->a);
          StaticTern b = staticEval(design, facts, e->b);
          if (a == StaticTern::False || b == StaticTern::False)
              return StaticTern::False;
          return StaticTern::Unknown;
      }
    }
    return StaticTern::Unknown;
}

Engine::Engine(const Design &design, const EngineConfig &config)
    : d(design), cfg(config),
      ctx_(design, config.auditProof, config.captureProof, config.queryLog)
{
    rmp_assert(cfg.bound >= 1, "bound must be positive");
    if (cfg.staticPrune) {
        if (!cfg.staticFacts)
            cfg.staticFacts = std::make_shared<const analysis::AbsFacts>(
                analysis::absInterpret(d));
        rmp_assert(cfg.staticFacts->val.size() == d.numCells(),
                   "static facts cover %zu of %zu cells",
                   cfg.staticFacts->val.size(), d.numCells());
    }
    ctx_.unrolling.ensureFrames(cfg.bound - 1);
}

bool
Engine::staticallyFalse(const prop::ExprRef &seq,
                        const std::vector<prop::ExprRef> &assumes) const
{
    if (!cfg.staticPrune || !cfg.staticFacts)
        return false;
    if (staticEval(d, *cfg.staticFacts, seq) == StaticTern::False)
        return true;
    // An assume that is statically false fails at cycle 0 of every
    // reachable trace: the query is vacuous, hence Unreachable.
    for (const auto &a : assumes)
        if (staticEval(d, *cfg.staticFacts, a) == StaticTern::False)
            return true;
    return false;
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

    // Static pruning: a cover refuted by the absint facts is Unreachable
    // without unrolling or solving. Under verdict auditing the query
    // falls through to the solver and the answers are reconciled below.
    const bool static_false = staticallyFalse(seq, assumes);
    const bool auditing = cfg.auditReplay || cfg.auditProof;
    if (static_false && !auditing) {
        CoverResult res;
        res.outcome = Outcome::Unreachable;
        auto t1 = std::chrono::steady_clock::now();
        res.seconds = std::chrono::duration<double>(t1 - t0).count();
        stats_.queries++;
        stats_.unreachable++;
        stats_.staticPruned++;
        stats_.totalSeconds += res.seconds;
        if (span.active()) {
            span.arg("outcome", static_cast<uint64_t>(res.outcome));
            span.arg("static_pruned", uint64_t{1});
            obs::Registry &reg = obs::Registry::global();
            reg.counter("bmc.queries",
                        {{"outcome", outcomeName(res.outcome)}})
                .add(1);
            reg.counter("absint.covers_pruned").add(1);
            reg.histogram("bmc.query_ns")
                .record(static_cast<uint64_t>(res.seconds * 1e9));
        }
        return res;
    }

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

    // Assumption literals: each assume holds at every frame.
    std::vector<sat::Lit> assumptions;
    bool vacuous = false;
    for (const auto &a : assumes) {
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

    if (static_false) {
        // Audit fall-through: the solver re-proved the pruned query. A
        // Reachable answer contradicts the static proof — one of the two
        // is defective; record it for the caller to quarantine. Either
        // way the reported verdict matches the non-audited path.
        stats_.staticPruned++;
        if (res.outcome == Outcome::Reachable) {
            res.audit.mismatch = true;
            res.audit.detail =
                "static prune audit: solver found a witness for a "
                "statically-false cover";
            res.witness = Witness{};
        }
        res.outcome = Outcome::Unreachable;
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
        if (static_false)
            reg.counter("absint.covers_pruned").add(1);
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

namespace
{

/** Evaluate the cover match and assume conditions on rc.trace. Shared by
 *  the interpreted and compiled replay paths so both apply the exact
 *  same acceptance criteria. */
void
evalReplay(ReplayCheck &rc, const prop::ExprRef &seq,
           const std::vector<prop::ExprRef> &assumes, unsigned bound)
{
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
}

} // anonymous namespace

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
    evalReplay(rc, seq, assumes, bound);
    return rc;
}

ReplayCheck
replayWitnessCompiled(const sim::Tape &tape, const Design &design,
                      const std::vector<InputMap> &inputs,
                      const prop::ExprRef &seq,
                      const std::vector<prop::ExprRef> &assumes,
                      unsigned bound)
{
    ReplayCheck rc;
    sim::BatchSim bs(tape, 1);
    bs.reserveTrace(std::min<size_t>(bound, inputs.size()));
    for (unsigned t = 0; t < bound && t < inputs.size(); t++) {
        bs.clearInputs();
        bs.stageInputs(0, inputs[t]);
        bs.step();
    }
    rc.trace = bs.laneTrace(0, design.numCells());
    evalReplay(rc, seq, assumes, bound);
    return rc;
}

const sim::Tape &
Engine::replayTapeFor(const prop::ExprRef &seq,
                      const std::vector<prop::ExprRef> &assumes)
{
    // Known-bits facts constantize tape cells beyond syntactic folding;
    // sound here because replays only ever run reachable-from-reset
    // stimulus (the facts' trace set). Seed once per engine.
    if (cfg.staticPrune && cfg.staticFacts && replayFold_.kbDesign != &d)
        analysis::seedFoldCache(d, *cfg.staticFacts, &replayFold_);
    if (replayWatched_.empty())
        replayWatched_.assign(d.numCells(), 0);
    bool grew = replayTape_ == nullptr;
    auto add = [&](SigId s) {
        if (s != kNoSig && !replayWatched_[s]) {
            replayWatched_[s] = 1;
            replayWatch_.push_back(s);
            grew = true;
        }
    };
    for (SigId s : cfg.witnessWatch)
        add(s);
    std::vector<SigId> support;
    prop::collectSigs(seq, &support);
    for (const auto &a : assumes)
        prop::collectSigs(a, &support);
    for (SigId s : support)
        add(s);
    // Recompile only when the watch closure grows; in steady state every
    // query template's support is already covered and the tape is shared
    // across all replays on this engine.
    if (grew)
        replayTape_ = std::make_unique<sim::Tape>(
            sim::compileTape(d, replayWatch_, &replayFold_));
    return *replayTape_;
}

Witness
Engine::extractWitness(const prop::ExprRef &seq,
                       const std::vector<prop::ExprRef> &assumes,
                       VerdictAudit *audit)
{
    obs::Span span("witness-extract", "bmc");
    if (span.active()) {
        span.arg("bound", cfg.bound);
        span.arg("validated", cfg.validateWitnesses);
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
    if (cfg.validateWitnesses || cfg.auditReplay) {
        // Independent soundness cross-check: replay the decoded stimulus
        // and confirm the sequence matches and all assumes hold. The
        // audit always replays on the interpreted simulator — it is the
        // trusted oracle the compiled engine itself is checked against —
        // while plain validation may ride the compiled tape when the
        // caller opted in (sparse watch-set traces suffice for it).
        ReplayCheck rc =
            cfg.compiledReplay && !cfg.auditReplay
                ? replayWitnessCompiled(replayTapeFor(seq, assumes), d,
                                        w.inputs, seq, assumes, cfg.bound)
                : replayWitness(d, w.inputs, seq, assumes, cfg.bound);
        if (cfg.auditReplay && audit) {
            // Audit mode records the mismatch for the caller to report
            // and quarantine; hard-asserting here would take down a whole
            // synthesis run on the first solver defect found.
            audit->replayed = true;
            if (!rc.ok()) {
                audit->mismatch = true;
                audit->detail =
                    !rc.matched
                        ? "witness replay: cover did not match on the "
                          "simulator"
                        : strfmt("witness replay: assume violated at "
                                 "cycle %u",
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
    }
    return w;
}

} // namespace rmp::bmc
