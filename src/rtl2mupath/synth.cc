#include "rtl2mupath/synth.hh"
#include <functional>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <set>
#include <cstdio>

#include "common/interrupt.hh"
#include "common/logging.hh"
#include "obs/progress.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace rmp::r2m
{

using namespace uhb;
using namespace prop;
using bmc::CoverResult;
using bmc::Outcome;

namespace
{

enum Step : size_t
{
    kSimExplore = 0,
    kDuvPl,
    kIuvPl,
    kPrune,
    kSetReach,
    kRevisit,
    kHbEdge,
    kRevisitCount,
    kDecision,
    kNumSteps,
};

const char *kStepNames[kNumSteps] = {
    "0:sim-explore (runs)", "1:duv-pl-reach", "2:iuv-pl-reach",
    "3:dom-excl-prune", "4:pl-set-reach", "5:revisit-class", "6:hb-edges",
    "6b:revisit-counts", "7:decisions",
};

/** Reachable-PL-Set and candidate-set enumeration stop beyond this many
 *  sets. */
constexpr size_t kMaxCandidateSets = 4096;

/** Named-field engine configuration (positional init breaks silently as
 *  EngineConfig grows). */
bmc::EngineConfig
engineConfigFor(const designs::Harness &hx, const SynthesisConfig &config)
{
    bmc::EngineConfig ec;
    ec.bound = hx.duv().completenessBound;
    ec.budget = config.budget;
    ec.auditReplay = config.auditReplay;
    ec.auditProof = config.auditProof;
    return ec;
}

} // anonymous namespace

MuPathSynthesizer::MuPathSynthesizer(const designs::Harness &harness,
                                     const SynthesisConfig &config)
    : hx(harness), cfg(config),
      pool_(harness.design(), engineConfigFor(harness, config),
            config.store),
      base(harness.baseAssumes())
{
    stats_.resize(kNumSteps);
    for (size_t i = 0; i < kNumSteps; i++)
        stats_[i].step = kStepNames[i];
}

namespace
{

void
tallyQuery(StepStats &st, const CoverResult &r)
{
    st.queries++;
    st.seconds += r.seconds;
    switch (r.outcome) {
      case Outcome::Reachable: st.reachable++; break;
      case Outcome::Unreachable: st.unreachable++; break;
      case Outcome::Undetermined: st.undetermined++; break;
    }
}

void
traceQuery(const Design &d, size_t step, const ExprRef &seq,
           const CoverResult &r)
{
    static const bool trace = std::getenv("RMP_TRACE_QUERIES") != nullptr;
    if (trace)
        std::fprintf(stderr, "[%s %s %.2fs] %s\n", kStepNames[step],
                     bmc::outcomeName(r.outcome), r.seconds,
                     seq->str(d).substr(0, 60).c_str());
}

} // anonymous namespace

CoverResult
MuPathSynthesizer::query(size_t step, const ExprRef &seq,
                         std::vector<ExprRef> assumes)
{
    assumes.insert(assumes.end(), base.begin(), base.end());
    CoverResult r = pool_.eval(seq, assumes);
    traceQuery(hx.design(), step, seq, r);
    StepStats &st = stats_[step];
    tallyQuery(st, r);
    if (obs::enabled())
        obs::Registry::global()
            .counter("r2m.covers", {{"step", kStepNames[step]},
                                    {"design", hx.design().name()}})
            .add(1);
    obs::progress(kStepNames[step], st.queries, 0, hx.design().name());
    return r;
}

const SimFacts &
MuPathSynthesizer::facts(InstrId iuv)
{
    auto it = factsCache.find(iuv);
    if (it != factsCache.end())
        return it->second;
    auto t0 = std::chrono::steady_clock::now();
    SimFacts f = exploreSim(hx, iuv, cfg.explore, cfg.jobs);
    auto t1 = std::chrono::steady_clock::now();
    StepStats &st = stats_[kSimExplore];
    st.queries += cfg.explore.runs;
    st.reachable += f.sets.size();
    st.seconds += std::chrono::duration<double>(t1 - t0).count();
    obs::progress(kStepNames[kSimExplore], st.queries, 0,
                  hx.design().name());
    return factsCache.emplace(iuv, std::move(f)).first->second;
}

const std::vector<PlId> &
MuPathSynthesizer::duvPls()
{
    if (duvPlsDone)
        return duvPls_;
    for (PlId p = 0; p < hx.numPls(); p++)
        if (query(kDuvPl, pBit(hx.plSig(p).occupied), {}).reachable())
            duvPls_.push_back(p);
    duvPlsDone = true;
    return duvPls_;
}

std::vector<PlId>
MuPathSynthesizer::iuvPls(InstrId iuv)
{
    const SimFacts &f = facts(iuv);
    // Covers only for the PLs simulation did not already discharge.
    std::vector<PlId> out;
    for (PlId p : duvPls()) {
        if (f.iuvPls.count(p)) {
            out.push_back(p); // reachable with a sim witness
            continue;
        }
        if (!cfg.closureChecks)
            continue; // semi-formal profile: unobserved => unreachable
        if (query(kIuvPl, pBit(hx.plSig(p).iuvAt), {hx.assumeIuvIs(iuv)})
                .reachable())
            out.push_back(p);
    }
    return out;
}

PruneFacts
MuPathSynthesizer::pruneFacts(InstrId iuv, const std::vector<PlId> &iuv_pls)
{
    PruneFacts f;
    f.iuvPls = iuv_pls;
    size_t n = iuv_pls.size();
    f.dom.assign(n, std::vector<bool>(n, false));
    f.excl.assign(n, std::vector<bool>(n, false));
    f.mandatory.assign(n, false);
    ExprRef is_iuv = hx.assumeIuvIs(iuv);
    ExprRef gone = pBit(hx.iuvGone);

    // Note the polarity: an unreachable cover *proves* a fact; an
    // undetermined one must conservatively deny it (§VII-B4).
    auto proves = [&](const ExprRef &seq) {
        return query(kPrune, seq, {is_iuv}).outcome == Outcome::Unreachable;
    };
    // Mandatory: no completed execution misses the PL. This wave runs
    // first because it decides which dominance covers below are skipped.
    for (size_t i = 0; i < n; i++)
        f.mandatory[i] =
            proves(pAnd(gone, pNot(pBit(hx.plSig(iuv_pls[i]).iuvVisited))));
    // Exclusive / dominance facts.
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j < n; j++) {
            if (i == j)
                continue;
            ExprRef vi = pBit(hx.plSig(iuv_pls[i]).iuvVisited);
            ExprRef vj = pBit(hx.plSig(iuv_pls[j]).iuvVisited);
            if (i < j) // exclusive: both visited is unreachable
                f.excl[i][j] = f.excl[j][i] = proves(pAnd(vi, vj));
            if (f.mandatory[i])
                continue; // dominance implied; skip the query
            // dom[i][j]: visiting j implies visiting i.
            f.dom[i][j] = proves(pAnd(gone, pAnd(vj, pNot(vi))));
        }
    }
    for (size_t i = 0; i < n; i++)
        if (f.mandatory[i])
            for (size_t j = 0; j < n; j++)
                if (i != j)
                    f.dom[i][j] = true;
    return f;
}

std::vector<std::vector<PlId>>
MuPathSynthesizer::enumerateCandidateSets(const PruneFacts &f) const
{
    size_t n = f.iuvPls.size();
    std::vector<std::vector<PlId>> out;
    // DFS over include/exclude with constraint propagation.
    std::vector<int> state(n, -1); // -1 undecided, 0 out, 1 in
    struct Frame
    {
        size_t idx;
        int choice;
    };
    std::vector<uint8_t> chosen(n, 0);

    std::function<bool(const std::vector<int> &)> consistent =
        [&](const std::vector<int> &st) {
            for (size_t i = 0; i < n; i++) {
                if (st[i] != 1)
                    continue;
                for (size_t j = 0; j < n; j++) {
                    if (st[j] == 1 && f.excl[i][j])
                        return false;
                    // dom[j][i]: i needs j.
                    if (f.dom[j][i] && st[j] == 0)
                        return false;
                }
            }
            return true;
        };

    std::function<void(size_t)> rec = [&](size_t idx) {
        if (out.size() >= kMaxCandidateSets)
            return;
        if (idx == n) {
            std::vector<PlId> set;
            for (size_t i = 0; i < n; i++)
                if (state[i] == 1)
                    set.push_back(f.iuvPls[i]);
            if (!set.empty())
                out.push_back(std::move(set));
            return;
        }
        for (int choice : {1, 0}) {
            if (choice == 0 && f.mandatory[idx])
                continue;
            state[idx] = choice;
            if (consistent(state))
                rec(idx + 1);
        }
        state[idx] = -1;
    };
    rec(0);
    return out;
}

ExprRef
MuPathSynthesizer::exprVisitedExactly(const std::vector<PlId> &iuv_pls,
                                      const std::vector<PlId> &set) const
{
    std::vector<ExprRef> terms;
    for (PlId p : iuv_pls) {
        bool in = std::find(set.begin(), set.end(), p) != set.end();
        ExprRef v = pBit(hx.plSig(p).iuvVisited);
        terms.push_back(in ? v : pNot(v));
    }
    return pAndN(terms);
}

UPath
MuPathSynthesizer::buildPath(InstrId iuv, const std::vector<PlId> &set,
                             const bmc::Witness &witness)
{
    UPath path;
    path.instr = iuv;
    path.plSet.insert(set.begin(), set.end());

    // Extract the concrete schedule from the replayed witness trace.
    const SimTrace &tr = witness.trace;
    int first = -1, last = -1;
    std::vector<std::vector<PlId>> sched;
    for (size_t t = 0; t < tr.numCycles(); t++) {
        std::vector<PlId> now;
        for (PlId p : set)
            if (tr.value(t, hx.plSig(p).iuvAt))
                now.push_back(p);
        if (!now.empty()) {
            if (first < 0)
                first = static_cast<int>(t);
            last = static_cast<int>(t);
        }
        sched.push_back(std::move(now));
    }
    rmp_assert(first >= 0, "witness contains no IUV visit");
    path.schedule.assign(sched.begin() + first, sched.begin() + last + 1);
    return path;
}

std::vector<std::pair<std::vector<PlId>, bmc::Witness>>
MuPathSynthesizer::reachableSetsPaper(InstrId iuv,
                                      const std::vector<PlId> &iuv_pls)
{
    ExprRef is_iuv = hx.assumeIuvIs(iuv);
    ExprRef gone = pBit(hx.iuvGone);
    PruneFacts facts = pruneFacts(iuv, iuv_pls);
    // One exact-visited-set cover per surviving candidate.
    std::vector<std::pair<std::vector<PlId>, bmc::Witness>> out;
    for (auto &set : enumerateCandidateSets(facts)) {
        CoverResult r = query(
            kSetReach, pAnd(gone, exprVisitedExactly(iuv_pls, set)), {is_iuv});
        if (r.outcome == Outcome::Reachable)
            out.emplace_back(std::move(set), std::move(r.witness));
    }
    return out;
}

std::vector<std::pair<std::vector<PlId>, bmc::Witness>>
MuPathSynthesizer::reachableSetsAllSat(InstrId iuv,
                                       const std::vector<PlId> &iuv_pls)
{
    // Witness-driven enumeration: ask for any completed execution whose
    // exact visited set is none of the sets found so far; each witness
    // contributes one new Reachable PL Set. Unreachable terminates the
    // enumeration with the same bound-completeness guarantee as the
    // per-candidate covers; Undetermined terminates it conservatively
    // (flagged in the step statistics, §VII-B4).
    ExprRef is_iuv = hx.assumeIuvIs(iuv);
    ExprRef gone = pBit(hx.iuvGone);
    std::vector<std::pair<std::vector<PlId>, bmc::Witness>> out;
    std::vector<ExprRef> assumes{is_iuv};
    for (const auto &[set, sf] : facts(iuv).sets) {
        out.emplace_back(set, sf.witness);
        assumes.push_back(
            pNot(pAnd(gone, exprVisitedExactly(iuv_pls, set))));
    }
    while (out.size() < kMaxCandidateSets) {
        CoverResult r = query(kSetReach, gone, assumes);
        if (r.outcome != Outcome::Reachable)
            break;
        // Read the exact visited set off the frozen tail of the trace.
        const SimTrace &tr = r.witness.trace;
        size_t last = tr.numCycles() - 1;
        std::vector<PlId> set;
        for (PlId p : iuv_pls)
            if (tr.value(last, hx.plSig(p).iuvVisited))
                set.push_back(p);
        rmp_assert(!set.empty(), "gone with empty visited set");
        // Block this set: no later witness may end gone with exactly it.
        assumes.push_back(
            pNot(pAnd(gone, exprVisitedExactly(iuv_pls, set))));
        out.emplace_back(std::move(set), std::move(r.witness));
    }
    return out;
}

uhb::InstrPaths
MuPathSynthesizer::synthesize(InstrId iuv)
{
    obs::Span span("r2m-synthesize", "r2m");
    span.arg("iuv", iuv);
    InstrPaths result;
    result.instr = iuv;
    ExprRef is_iuv = hx.assumeIuvIs(iuv);
    ExprRef gone = pBit(hx.iuvGone);

    std::vector<PlId> ipls = iuvPls(iuv);
    auto sets = cfg.usePaperEnumeration ? reachableSetsPaper(iuv, ipls)
                                        : reachableSetsAllSat(iuv, ipls);

    const SimFacts &sfacts = facts(iuv);

    // Negative facts (no revisit / no edge / no count anywhere) are
    // established ONCE per instruction by unconditioned covers and shared
    // across sets; a reachable witness is attributed to the exact set it
    // exhibits (read off its trace), preserving per-set precision without
    // the paper's per-(set, fact) query blowup. "Once" is enforced by the
    // engine pool's query cache: re-issuing the identical cover from a
    // later set replays the memoized verdict (and its witness) without
    // touching a solver.
    auto witness_set_of = [&](const bmc::Witness &w) {
        std::vector<PlId> s;
        size_t last = w.trace.numCycles() - 1;
        for (PlId p : ipls)
            if (w.trace.value(last, hx.plSig(p).iuvVisited))
                s.push_back(p);
        return s;
    };
    // Per-set extra positives discovered through global witnesses.
    std::map<std::vector<PlId>, std::set<PlId>> extra_consec,
        extra_nonconsec;
    std::map<std::vector<PlId>, std::set<std::pair<PlId, PlId>>>
        extra_edges;
    auto glob_check = [&](PlId p, SigId flag,
                          std::map<std::vector<PlId>, std::set<PlId>>
                              &extra) {
        if (!cfg.closureChecks)
            return 0;
        CoverResult r =
            query(kRevisit, pAnd(gone, pBit(flag)), {is_iuv});
        int v = r.outcome == Outcome::Reachable ? 1 : 0;
        if (v) // idempotent on a cache-hit replay of the same witness
            extra[witness_set_of(r.witness)].insert(p);
        return v;
    };

    for (auto &[set, witness] : sets) {
        ExprRef exact = exprVisitedExactly(ipls, set);
        UPath path = buildPath(iuv, set, witness);
        const SimSetFact *sf = nullptr;
        auto sfit = sfacts.sets.find(set);
        if (sfit != sfacts.sets.end())
            sf = &sfit->second;

        // Step 5: revisit classification (sim-observed per set; global
        // fallback otherwise).
        for (PlId p : set) {
            bool c = (sf && sf->consec.count(p)) ||
                     extra_consec[set].count(p);
            bool nc = (sf && sf->nonconsec.count(p)) ||
                      extra_nonconsec[set].count(p);
            if (!c && glob_check(p, hx.plSig(p).revisitConsec,
                                 extra_consec))
                c = extra_consec[set].count(p) != 0;
            if (!nc && glob_check(p, hx.plSig(p).revisitNonconsec,
                                  extra_nonconsec))
                nc = extra_nonconsec[set].count(p) != 0;
            path.revisit[p] = c && nc ? Revisit::Both
                              : c     ? Revisit::Consecutive
                              : nc    ? Revisit::NonConsecutive
                                      : Revisit::None;
        }

        // Step 6: HB edges over combinational-connectivity candidates
        // (§V-B5), same sim-first/global-fallback scheme.
        std::vector<std::pair<PlId, PlId>> set_edges;
        for (const auto &eo : hx.edgeObservers()) {
            if (!path.plSet.count(eo.from) || !path.plSet.count(eo.to))
                continue;
            std::pair<PlId, PlId> key{eo.from, eo.to};
            bool have = (sf && sf->edges.count(key)) ||
                        extra_edges[set].count(key);
            if (!have && cfg.closureChecks) {
                CoverResult re = query(
                    kHbEdge, pAnd(gone, pBit(eo.seen)), {is_iuv});
                if (re.outcome == Outcome::Reachable)
                    extra_edges[witness_set_of(re.witness)].insert(key);
                have = extra_edges[set].count(key) != 0;
            }
            if (have)
                set_edges.emplace_back(eo.from, eo.to);
        }
        // Place cycle-accurate edges on the concrete schedule.
        for (size_t t = 0; t + 1 < path.schedule.size(); t++) {
            for (PlId p : path.schedule[t]) {
                for (PlId q : path.schedule[t + 1]) {
                    bool same = p == q;
                    bool verified =
                        std::find(set_edges.begin(), set_edges.end(),
                                  std::make_pair(p, q)) != set_edges.end();
                    if (same || verified)
                        path.edges.push_back(
                            {p, static_cast<unsigned>(t), q,
                             static_cast<unsigned>(t + 1)});
                }
            }
        }

        // Step 6b: revisit cycle counts (§V-B6 mode (i)), one probe per
        // (p, k) that simulation did not observe.
        if (cfg.revisitCounts) {
            unsigned maxk = std::min(
                cfg.maxRevisitCount,
                (1u << designs::Harness::kCountWidth) - 1);
            for (PlId p : set) {
                if (path.revisit[p] == Revisit::None)
                    continue;
                // Materialized even when it stays empty.
                std::vector<unsigned> &counts = path.revisitCounts[p];
                for (unsigned k = 1; k <= maxk; k++) {
                    bool seen = sf && sf->counts.count(p) &&
                                sf->counts.at(p).count(k);
                    if (!seen && cfg.closureChecks)
                        seen = query(kRevisitCount,
                                     pAnd(gone,
                                          pAnd(exact,
                                               pEq(hx.plSig(p).visitCount,
                                                   k))),
                                     {is_iuv})
                                   .reachable();
                    if (seen)
                        counts.push_back(k);
                }
            }
        }

        result.paths.push_back(std::move(path));
    }

    synthesizeDecisions(iuv, ipls, result);
    if (span.active()) {
        span.arg("upaths", result.paths.size());
        span.arg("decisions", result.decisions.size());
        const std::string &iname = hx.duv().instrs[iuv].name;
        obs::Registry &reg = obs::Registry::global();
        obs::Labels labels{{"design", hx.design().name()}, {"iuv", iname}};
        reg.counter("r2m.upaths", labels).add(result.paths.size());
        reg.counter("r2m.decisions", labels).add(result.decisions.size());
    }
    return result;
}

std::map<InstrId, uhb::InstrPaths>
MuPathSynthesizer::synthesizeAll(const std::vector<InstrId> &iuvs)
{
    // Step-1 covers, shared by every IUV.
    duvPls();

    std::map<InstrId, InstrPaths> out;
    for (InstrId iuv : iuvs) {
        // Cooperative interruption (SIGINT/SIGTERM): stop cleanly at an
        // instruction boundary so the caller can render a coherent
        // partial summary. Completed IUVs keep their full results.
        if (interruptRequested())
            break;
        out.emplace(iuv, synthesize(iuv));
    }
    return out;
}

void
MuPathSynthesizer::synthesizeDecisions(InstrId iuv,
                                       const std::vector<PlId> &iuv_pls,
                                       InstrPaths &out)
{
    // Witness-driven all-SAT per decision source: repeatedly cover "the
    // IUV visits src followed one cycle later by an occupancy pattern
    // distinct from every pattern found so far", and read the new
    // destination set off the witness. Terminates with a bound-complete
    // Unreachable once every successor pattern is known.
    ExprRef is_iuv = hx.assumeIuvIs(iuv);
    std::map<PlId, std::vector<std::vector<PlId>>> per_src;

    const SimFacts &sfacts = facts(iuv);
    for (PlId src : iuv_pls) {
        ExprRef at_src = pBit(hx.plSig(src).iuvAt);
        std::vector<std::vector<PlId>> dsts;
        auto seed = sfacts.succ.find(src);
        if (seed != sfacts.succ.end())
            dsts.assign(seed->second.begin(), seed->second.end());
        while (cfg.closureChecks && dsts.size() < 64) {
            // mismatch(D): the next-cycle occupancy differs from D.
            std::vector<ExprRef> mismatches;
            for (const auto &dst : dsts) {
                std::vector<ExprRef> diffs;
                for (PlId q : iuv_pls) {
                    bool in = std::find(dst.begin(), dst.end(), q) !=
                              dst.end();
                    ExprRef at_q = pBit(hx.plSig(q).iuvAt);
                    diffs.push_back(in ? pNot(at_q) : at_q);
                }
                mismatches.push_back(pOrN(diffs));
            }
            CoverResult r = query(
                kDecision, pDelay(at_src, 1, pAndN(mismatches)), {is_iuv});
            if (r.outcome != Outcome::Reachable)
                break;
            unsigned f = r.witness.matchFrame;
            const SimTrace &tr = r.witness.trace;
            rmp_assert(f + 1 < tr.numCycles(), "match at last frame");
            std::vector<PlId> dst;
            for (PlId q : iuv_pls)
                if (tr.value(f + 1, hx.plSig(q).iuvAt))
                    dst.push_back(q);
            dsts.push_back(std::move(dst));
        }
        if (dsts.size() >= 2)
            per_src[src] = std::move(dsts);
    }
    for (auto &[src, dsts] : per_src) {
        for (auto &dst : dsts) {
            Decision d;
            d.src = src;
            d.dst = std::move(dst);
            std::sort(d.dst.begin(), d.dst.end());
            out.decisions.push_back(std::move(d));
        }
    }
    std::sort(out.decisions.begin(), out.decisions.end());
}

} // namespace rmp::r2m
