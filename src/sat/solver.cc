#include "sat/solver.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace rmp::sat
{

Solver::Solver() = default;

Var
Solver::newVar()
{
    Var v = numVars();
    assigns.push_back(LBool::Undef);
    savedPhase.push_back(false);
    level.push_back(0);
    reason.push_back(kNoReason);
    activity.push_back(0.0);
    seen.push_back(0);
    heapPos.push_back(-1);
    watches.emplace_back();
    watches.emplace_back();
    heapInsert(v);
    return v;
}

void
Solver::heapInsert(Var v)
{
    if (heapPos[v] >= 0)
        return;
    heapPos[v] = static_cast<int>(heap.size());
    heap.push_back(v);
    heapPercolateUp(heapPos[v]);
}

void
Solver::heapPercolateUp(int i)
{
    Var v = heap[i];
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (!heapLess(v, heap[p]))
            break;
        heap[i] = heap[p];
        heapPos[heap[i]] = i;
        i = p;
    }
    heap[i] = v;
    heapPos[v] = i;
}

void
Solver::heapPercolateDown(int i)
{
    Var v = heap[i];
    int n = static_cast<int>(heap.size());
    while (true) {
        int l = 2 * i + 1, r = 2 * i + 2;
        int best = i;
        Var bv = v;
        if (l < n && heapLess(heap[l], bv)) {
            best = l;
            bv = heap[l];
        }
        if (r < n && heapLess(heap[r], bv)) {
            best = r;
            bv = heap[r];
        }
        if (best == i)
            break;
        heap[i] = heap[best];
        heapPos[heap[i]] = i;
        heap[best] = v; // placeholder; fixed on next iteration/exit
        heapPos[v] = best;
        i = best;
    }
    heap[i] = v;
    heapPos[v] = i;
}

LBool
Solver::litValue(Lit l) const
{
    LBool v = assigns[l.var()];
    if (v == LBool::Undef)
        return LBool::Undef;
    bool b = (v == LBool::True) != l.sign();
    return b ? LBool::True : LBool::False;
}

Solver::ClauseRef
Solver::allocClause(const std::vector<Lit> &lits, bool learned)
{
    rmp_assert(lits.size() >= 2, "arena clause below size 2");
    ClauseRef c = static_cast<ClauseRef>(arena_.size());
    arena_.push_back(static_cast<uint32_t>(lits.size()) << 3 |
                     (learned ? 4u : 0u));
    arena_.push_back(std::bit_cast<uint32_t>(0.0f));
    arena_.push_back(0); // LBD
    for (Lit l : lits)
        arena_.push_back(static_cast<uint32_t>(l.x));
    return c;
}

void
Solver::markDead(ClauseRef c)
{
    rmp_assert(!clauseDead(c), "double tombstone");
    arena_[c] |= 2;
    wasted_ += kHeaderWords + clauseSize(c);
}

float
Solver::clauseActivity(ClauseRef c) const
{
    return std::bit_cast<float>(arena_[c + 1]);
}

void
Solver::setClauseActivity(ClauseRef c, float a)
{
    arena_[c + 1] = std::bit_cast<uint32_t>(a);
}

bool
Solver::addClause(std::vector<Lit> lits)
{
    if (!okay)
        return false;
    // The proof trace records the clause exactly as handed in; the
    // simplifications below are all derivable from it plus the logged
    // root units, so the checker never needs to see them.
    if (proof)
        proof->onInput(lits);
    // Incremental use: clauses may arrive between solve() calls while the
    // trail still holds assumption levels from the previous query. The
    // root-value simplification below is only sound at level 0, so clause
    // addition always cancels the saved assumption prefix.
    backtrack(0);
    std::sort(lits.begin(), lits.end());
    // Remove duplicates; detect tautologies; drop false literals.
    std::vector<Lit> out;
    for (size_t i = 0; i < lits.size(); i++) {
        Lit l = lits[i];
        if (i + 1 < lits.size() && lits[i + 1] == ~l)
            return true; // tautology: l and ~l adjacent after sort by x
        if (!out.empty() && out.back() == l)
            continue;
        LBool v = litValue(l);
        if (v == LBool::True)
            return true;
        if (v == LBool::False)
            continue;
        out.push_back(l);
    }
    if (out.empty()) {
        // Every literal is false under the root assignment: refuted.
        okay = false;
        if (proof)
            proof->onDerive({});
        return false;
    }
    if (out.size() == 1) {
        // A root-level unit (the clause itself, strengthened by root
        // units) is a derived fact the checker must be told about.
        if (proof)
            proof->onDerive(out);
        enqueue(out[0], kNoReason);
        if (propagate() != kNoReason) {
            okay = false;
            if (proof)
                proof->onDerive({});
            return false;
        }
        return true;
    }
    ClauseRef cref = allocClause(out, false);
    clauses_.push_back(cref);
    attachClause(cref);
    return true;
}

void
Solver::attachClause(ClauseRef cref)
{
    const Lit *ls = clauseLits(cref);
    watches[(~ls[0]).x].push_back({cref, ls[1]});
    watches[(~ls[1]).x].push_back({cref, ls[0]});
}

void
Solver::enqueue(Lit l, ClauseRef r)
{
    rmp_assert(litValue(l) == LBool::Undef, "enqueue of assigned literal");
    assigns[l.var()] = l.sign() ? LBool::False : LBool::True;
    level[l.var()] = static_cast<int>(trailLim.size());
    reason[l.var()] = r;
    trail.push_back(l);
}

Solver::ClauseRef
Solver::propagate()
{
    while (qhead < trail.size()) {
        Lit p = trail[qhead++];
        stats_.propagations++;
        std::vector<Watcher> &ws = watches[p.x];
        size_t i = 0, j = 0;
        while (i < ws.size()) {
            Watcher w = ws[i];
            if (litValue(w.blocker) == LBool::True) {
                ws[j++] = ws[i++];
                continue;
            }
            Lit *lits = clauseLits(w.cref);
            // Make sure the false literal is lits[1].
            Lit false_lit = ~p;
            if (lits[0] == false_lit)
                std::swap(lits[0], lits[1]);
            rmp_assert(lits[1] == false_lit, "watch invariant");
            i++;
            Lit first = lits[0];
            if (litValue(first) == LBool::True) {
                ws[j++] = {w.cref, first};
                continue;
            }
            // Look for a new literal to watch.
            uint32_t size = clauseSize(w.cref);
            bool found = false;
            for (uint32_t k = 2; k < size; k++) {
                if (litValue(lits[k]) != LBool::False) {
                    std::swap(lits[1], lits[k]);
                    watches[(~lits[1]).x].push_back({w.cref, first});
                    found = true;
                    break;
                }
            }
            if (found)
                continue;
            // Unit or conflicting.
            ws[j++] = {w.cref, first};
            if (litValue(first) == LBool::False) {
                // Conflict: copy remaining watchers and bail out.
                while (i < ws.size())
                    ws[j++] = ws[i++];
                ws.resize(j);
                qhead = trail.size();
                return w.cref;
            }
            enqueue(first, w.cref);
        }
        ws.resize(j);
    }
    return kNoReason;
}

void
Solver::bumpVar(Var v)
{
    activity[v] += varInc;
    if (activity[v] > 1e100) {
        for (auto &a : activity)
            a *= 1e-100;
        varInc *= 1e-100;
    }
    if (heapPos[v] >= 0)
        heapPercolateUp(heapPos[v]);
}

void
Solver::bumpClause(ClauseRef c)
{
    float a = clauseActivity(c) + static_cast<float>(claInc);
    setClauseActivity(c, a);
    if (a > 1e20f) {
        // Rescale live learned clauses only — the old DB scanned every
        // slot including cleared tombstones.
        for (ClauseRef lc : learnts_)
            setClauseActivity(lc, clauseActivity(lc) * 1e-20f);
        claInc *= 1e-20;
    }
}

void
Solver::decayActivities()
{
    varInc /= 0.95;
    claInc /= 0.999;
}

uint32_t
Solver::computeLbd(const std::vector<Lit> &lits)
{
    // Glucose "literals block distance": distinct decision levels in the
    // clause. Low LBD predicts reuse; LBD <= 2 ("glue") clauses are kept
    // forever.
    lbdGen_++;
    if (lbdMark_.size() <= trailLim.size())
        lbdMark_.resize(trailLim.size() + 1, 0);
    uint32_t n = 0;
    for (Lit l : lits) {
        int lv = level[l.var()];
        if (lv > 0 && lbdMark_[lv] != lbdGen_) {
            lbdMark_[lv] = lbdGen_;
            n++;
        }
    }
    return n ? n : 1;
}

void
Solver::analyze(ClauseRef confl, std::vector<Lit> &out_learned,
                int &out_btlevel, uint32_t &out_lbd)
{
    out_learned.clear();
    out_learned.push_back(Lit()); // placeholder for asserting literal
    int path_count = 0;
    Lit p;
    bool have_p = false;
    size_t index = trail.size();
    int cur_level = static_cast<int>(trailLim.size());

    do {
        rmp_assert(confl != kNoReason, "analyze with no reason");
        if (clauseLearned(confl))
            bumpClause(confl);
        const Lit *lits = clauseLits(confl);
        uint32_t size = clauseSize(confl);
        for (uint32_t k = have_p ? 1 : 0; k < size; k++) {
            Lit q = lits[k];
            if (have_p && q == p)
                continue;
            Var v = q.var();
            if (!seen[v] && level[v] > 0) {
                seen[v] = 1;
                bumpVar(v);
                if (level[v] >= cur_level)
                    path_count++;
                else
                    out_learned.push_back(q);
            }
        }
        // Select next literal on the trail to resolve on.
        while (!seen[trail[index - 1].var()])
            index--;
        p = trail[--index];
        have_p = true;
        confl = reason[p.var()];
        seen[p.var()] = 0;
        path_count--;
        // Reason clauses always hold their implied literal at lits[0]
        // (propagate() enqueues first == lits[0], and a true lits[0] is
        // never swapped away while p stays assigned), so the k=1 start in
        // the loop above is sound for them.
        if (path_count > 0 && confl == kNoReason)
            rmp_panic("analyze: decision literal with pending paths");
    } while (path_count > 0);
    out_learned[0] = ~p;

    // Clause minimization: drop literals implied by the rest. Literals
    // removed here still carry their seen[] mark, so remember everything
    // for the final clear (MiniSat's analyze_toclear).
    std::vector<Lit> to_clear(out_learned.begin() + 1, out_learned.end());
    uint32_t abstract_levels = 0;
    for (size_t i = 1; i < out_learned.size(); i++)
        abstract_levels |= 1u << (level[out_learned[i].var()] & 31);
    size_t keep = 1;
    for (size_t i = 1; i < out_learned.size(); i++) {
        Lit l = out_learned[i];
        if (reason[l.var()] == kNoReason ||
            !litRedundant(l, abstract_levels)) {
            out_learned[keep++] = l;
        }
    }
    out_learned.resize(keep);

    // Glue score of the final (minimized) clause, while levels are still
    // those of the conflict.
    out_lbd = computeLbd(out_learned);

    // Compute backtrack level = second-highest level in the clause.
    if (out_learned.size() == 1) {
        out_btlevel = 0;
    } else {
        size_t max_i = 1;
        for (size_t i = 2; i < out_learned.size(); i++)
            if (level[out_learned[i].var()] >
                level[out_learned[max_i].var()])
                max_i = i;
        std::swap(out_learned[1], out_learned[max_i]);
        out_btlevel = level[out_learned[1].var()];
    }

    seen[out_learned[0].var()] = 0;
    for (Lit l : to_clear)
        seen[l.var()] = 0;
}

/**
 * MiniSat-style final conflict analysis: @p p is ~(failed assumption),
 * true on the trail. Walks the trail top-down through reason clauses and
 * collects the core clause {p} ∪ {~d : d an assumption/decision the
 * derivation rests on}. The clause is RUP against the live database:
 * asserting the negation of every core literal replays, by unit
 * propagation through exactly the reason clauses walked here, the trail
 * segment that falsified the assumption.
 */
void
Solver::analyzeFinal(Lit p, std::vector<Lit> &out_core)
{
    out_core.clear();
    out_core.push_back(p);
    if (trailLim.empty())
        return; // ~p is root-implied: the unit core {p} is RUP by itself
    seen[p.var()] = 1;
    for (size_t i = trail.size(); i > static_cast<size_t>(trailLim[0]);
         i--) {
        Var x = trail[i - 1].var();
        if (!seen[x])
            continue;
        if (reason[x] == kNoReason) {
            rmp_assert(level[x] > 0, "decision at root level");
            out_core.push_back(~trail[i - 1]);
        } else {
            const Lit *lits = clauseLits(reason[x]);
            uint32_t size = clauseSize(reason[x]);
            for (uint32_t k = 1; k < size; k++)
                if (level[lits[k].var()] > 0)
                    seen[lits[k].var()] = 1;
        }
        seen[x] = 0;
    }
    seen[p.var()] = 0;
}

bool
Solver::litRedundant(Lit l, uint32_t abstract_levels)
{
    // DFS through the implication graph; l is redundant if every path
    // terminates in literals already in the learned clause.
    std::vector<Lit> stack{l};
    std::vector<Var> cleared;
    bool ok = true;
    while (!stack.empty() && ok) {
        Lit cur = stack.back();
        stack.pop_back();
        ClauseRef r = reason[cur.var()];
        if (r == kNoReason) {
            ok = false;
            break;
        }
        const Lit *lits = clauseLits(r);
        uint32_t size = clauseSize(r);
        for (uint32_t k = 0; k < size; k++) {
            Lit q = lits[k];
            Var v = q.var();
            if (v == cur.var() || seen[v] || level[v] == 0)
                continue;
            if (reason[v] == kNoReason ||
                !(abstract_levels & (1u << (level[v] & 31)))) {
                ok = false;
                break;
            }
            seen[v] = 2;
            cleared.push_back(v);
            stack.push_back(q);
        }
    }
    for (Var v : cleared)
        if (seen[v] == 2)
            seen[v] = 0;
    return ok;
}

void
Solver::backtrack(int lvl)
{
    if (static_cast<int>(trailLim.size()) <= lvl)
        return;
    for (size_t i = trail.size(); i > static_cast<size_t>(trailLim[lvl]);
         i--) {
        Var v = trail[i - 1].var();
        savedPhase[v] = assigns[v] == LBool::True;
        assigns[v] = LBool::Undef;
        reason[v] = kNoReason;
        heapInsert(v);
    }
    trail.resize(trailLim[lvl]);
    trailLim.resize(lvl);
    qhead = trail.size();
}

int
Solver::sharedAssumptionPrefix(const std::vector<Lit> &assumptions) const
{
    // Decision level i+1 always corresponds to assumptions[i] (possibly
    // as an empty level when the assumption was already propagated
    // true), so the trail through level k is implied by the root clauses
    // plus assumptions[0..k-1] alone — safe to keep whenever the new
    // call assumes the same prefix. addClause() resets to root, so a
    // kept prefix is always fully propagated w.r.t. the clause DB.
    size_t lim = std::min(
        {assumptions.size(), lastAssumptions_.size(), trailLim.size()});
    size_t k = 0;
    while (k < lim && assumptions[k] == lastAssumptions_[k])
        k++;
    return static_cast<int>(k);
}

Lit
Solver::pickBranchLit()
{
    // Pop the activity-ordered heap until an unassigned variable surfaces.
    while (!heap.empty()) {
        Var v = heap[0];
        Var last = heap.back();
        heap.pop_back();
        heapPos[v] = -1;
        if (!heap.empty() && last != v) {
            heap[0] = last;
            heapPos[last] = 0;
            heapPercolateDown(0);
        }
        if (assigns[v] == LBool::Undef)
            return Lit(v, !savedPhase[v]);
    }
    return Lit();
}

void
Solver::reduceDB()
{
    // Called at restarts and at solve entry. Triggered by the live
    // learned-clause count against a geometrically growing limit; the
    // old DB used a hard 2000-clause threshold that a long incremental
    // session hit on every restart forever. Safe at any decision level:
    // locked() keeps every clause that is currently some trail
    // literal's reason.
    if (learnts_.size() < reduceLimit_)
        return;
    reduceLimit_ += reduceLimit_ / 2;

    // A clause is locked while it is the reason of a (root, here) trail
    // literal; binary and glue (LBD <= 2) clauses are kept forever.
    auto locked = [&](ClauseRef c) {
        Lit l0 = clauseLits(c)[0];
        return litValue(l0) == LBool::True && reason[l0.var()] == c;
    };
    std::vector<ClauseRef> cand;
    for (ClauseRef c : learnts_)
        if (clauseSize(c) > 2 && clauseLbd(c) > 2 && !locked(c))
            cand.push_back(c);
    // Remove the worst half: highest glue first, then lowest activity;
    // the arena offset breaks remaining ties deterministically.
    std::sort(cand.begin(), cand.end(), [&](ClauseRef a, ClauseRef b) {
        if (clauseLbd(a) != clauseLbd(b))
            return clauseLbd(a) > clauseLbd(b);
        if (clauseActivity(a) != clauseActivity(b))
            return clauseActivity(a) < clauseActivity(b);
        return a < b;
    });
    size_t target = cand.size() / 2;
    if (target == 0)
        return;

    std::vector<Lit> dead_lits;
    for (size_t i = 0; i < target; i++) {
        ClauseRef c = cand[i];
        if (proof) {
            dead_lits.assign(clauseLits(c),
                             clauseLits(c) + clauseSize(c));
            proof->onDelete(dead_lits);
        }
        markDead(c);
    }
    stats_.removedClauses += target;
    stats_.dbReductions++;

    // Batch-rebuild: one pass over every watch list drops all dead
    // watchers at once, instead of a remove_if scan per removed clause
    // (O(watchlist x removed) in the old DB).
    for (auto &ws : watches)
        ws.erase(std::remove_if(
                     ws.begin(), ws.end(),
                     [&](const Watcher &w) { return clauseDead(w.cref); }),
                 ws.end());
    learnts_.erase(std::remove_if(
                       learnts_.begin(), learnts_.end(),
                       [&](ClauseRef c) { return clauseDead(c); }),
                   learnts_.end());

    // Compact the arena once tombstones reach a quarter of it.
    if (wasted_ * 4 > arena_.size())
        garbageCollect();
    if (checkingInvariants())
        debugCheckInvariants();
}

void
Solver::garbageCollect()
{
    // Copying compactor with forwarding refs (MiniSat's RegionAllocator
    // reloc): live clauses move to a fresh arena; the old header is
    // overwritten with the relocation bit + new ref so shared references
    // (clause lists, trail reasons) all land on the same copy. Runs only
    // at decision level 0 from reduceDB, so no propagation is in flight.
    std::vector<uint32_t> to;
    to.reserve(arena_.size() - wasted_);
    auto reloc = [&](ClauseRef c) -> ClauseRef {
        if (arena_[c] & 1)
            return arena_[c + 1]; // already forwarded
        uint32_t n = kHeaderWords + clauseSize(c);
        ClauseRef nc = static_cast<ClauseRef>(to.size());
        to.insert(to.end(), arena_.begin() + c, arena_.begin() + c + n);
        arena_[c] |= 1;
        arena_[c + 1] = nc;
        return nc;
    };
    for (ClauseRef &c : clauses_)
        c = reloc(c);
    for (ClauseRef &c : learnts_)
        c = reloc(c);
    for (Lit l : trail)
        if (reason[l.var()] != kNoReason)
            reason[l.var()] = reloc(reason[l.var()]);
    arena_.swap(to);
    wasted_ = 0;
    rebuildWatches();
    stats_.gcPasses++;
}

void
Solver::rebuildWatches()
{
    for (auto &ws : watches)
        ws.clear();
    for (ClauseRef c : clauses_)
        attachClause(c);
    for (ClauseRef c : learnts_)
        attachClause(c);
}

bool
Solver::checkingInvariants() const
{
    static const bool check =
        std::getenv("RMP_SAT_CHECK_MODELS") != nullptr;
    return check;
}

void
Solver::debugCheckInvariants() const
{
    size_t live_words = 0;
    std::unordered_map<ClauseRef, int> watch_count;
    auto check_list = [&](const std::vector<ClauseRef> &refs) {
        for (ClauseRef c : refs) {
            rmp_assert(!clauseDead(c), "live list holds a dead clause");
            rmp_assert(clauseSize(c) >= 2, "undersized arena clause");
            live_words += kHeaderWords + clauseSize(c);
            watch_count.emplace(c, 0);
        }
    };
    check_list(clauses_);
    check_list(learnts_);
    rmp_assert(live_words + wasted_ == arena_.size(),
               "arena word accounting out of balance");
    for (size_t ix = 0; ix < watches.size(); ix++) {
        Lit l;
        l.x = static_cast<int32_t>(ix);
        for (const Watcher &w : watches[ix]) {
            rmp_assert(!clauseDead(w.cref),
                       "watcher references a dead clause");
            const Lit *lits = clauseLits(w.cref);
            rmp_assert(lits[0] == ~l || lits[1] == ~l,
                       "watcher not on the clause's first two literals");
            auto it = watch_count.find(w.cref);
            rmp_assert(it != watch_count.end(),
                       "watcher references an unlisted clause");
            it->second++;
        }
    }
    for (const auto &[c, n] : watch_count)
        rmp_assert(n == 2, "live clause not watched exactly twice");
}

uint64_t
Solver::luby(uint64_t i)
{
    // Luby sequence: 1 1 2 1 1 2 4 ...
    uint64_t k = 1;
    while ((1ULL << (k + 1)) <= i + 1)
        k++;
    while ((1ULL << k) - 1 != i + 1) {
        i = i - ((1ULL << k) - 1);
        k = 1;
        while ((1ULL << (k + 1)) <= i + 1)
            k++;
    }
    return 1ULL << (k - 1);
}

SatResult
Solver::solve(const std::vector<Lit> &assumptions, const SatBudget &budget)
{
    SatResult r;
    if (!obs::enabled()) {
        lbdHist_ = nullptr;
        r = solveLoop(assumptions, budget);
    } else {
        obs::Span span("sat-solve", "sat");
        obs::Registry &reg = obs::Registry::global();
        lbdHist_ = &reg.histogram("sat.lbd");
        SatStats before = stats_;
        r = solveLoop(assumptions, budget);
        span.arg("decisions", stats_.decisions - before.decisions);
        span.arg("conflicts", stats_.conflicts - before.conflicts);
        span.arg("propagations",
                 stats_.propagations - before.propagations);
        span.arg("restarts", stats_.restarts - before.restarts);
        span.arg("learned", stats_.learnedClauses - before.learnedClauses);
        span.arg("sat", r == SatResult::Sat);
        reg.counter("sat.solves").add(1);
        reg.counter("sat.decisions")
            .add(stats_.decisions - before.decisions);
        reg.counter("sat.conflicts")
            .add(stats_.conflicts - before.conflicts);
        reg.counter("sat.propagations")
            .add(stats_.propagations - before.propagations);
        reg.counter("sat.restarts").add(stats_.restarts - before.restarts);
        reg.counter("sat.learned_clauses")
            .add(stats_.learnedClauses - before.learnedClauses);
        reg.counter("sat.removed_clauses")
            .add(stats_.removedClauses - before.removedClauses);
        reg.counter("sat.db_reductions")
            .add(stats_.dbReductions - before.dbReductions);
        reg.counter("sat.gc_passes")
            .add(stats_.gcPasses - before.gcPasses);
        reg.counter("sat.assumption_cores")
            .add(stats_.assumptionConflicts - before.assumptionConflicts);
        reg.counter("sat.saved_trail_lits")
            .add(stats_.savedTrailLits - before.savedTrailLits);
    }
    lastAssumptions_ = assumptions;
    return r;
}

SatResult
Solver::solveLoop(const std::vector<Lit> &assumptions,
                  const SatBudget &budget)
{
    if (!okay)
        return SatResult::Unsat;
    // Trail saving: keep the propagation prefix of the decision levels
    // whose assumptions this call repeats (the BMC engine puts the
    // shared assume literals first, so its sweeps of covers re-enter
    // here with a warm prefix) instead of always cancelling to root.
    int keep = sharedAssumptionPrefix(assumptions);
    backtrack(keep);
    if (keep > 0)
        stats_.savedTrailLits +=
            trail.size() - static_cast<size_t>(trailLim[0]);
    // Also reduce on entry (self-gated on the limit): a long incremental
    // session of short solves never restarts, and restarts were the only
    // other reduction point — the exact pattern that let the old DB grow
    // a tombstone per learned clause forever.
    reduceDB();
    failed_.clear();
    uint64_t conflicts_start = stats_.conflicts;
    uint64_t props_start = stats_.propagations;
    uint64_t restart_num = 0;
    uint64_t restart_limit = 64 * luby(restart_num);
    uint64_t conflicts_this_restart = 0;

    std::vector<Lit> learned;
    while (true) {
        // Deterministic budget boundary: the one and only exhaustion
        // check, taken before each propagate/decide round against this
        // call's deltas. Checking here (instead of, say, only after
        // conflicts) makes the effective budget a pure function of the
        // (formula, budget) pair — a propagation-heavy, conflict-free
        // stretch can no longer blow arbitrarily far past
        // maxPropagations before anyone looks.
        if ((budget.maxConflicts &&
             stats_.conflicts - conflicts_start >= budget.maxConflicts) ||
            (budget.maxPropagations &&
             stats_.propagations - props_start >= budget.maxPropagations))
            return SatResult::Undetermined;
        ClauseRef confl = propagate();
        if (confl != kNoReason) {
            stats_.conflicts++;
            conflicts_this_restart++;
            if (trailLim.empty()) {
                // Conflict at root level: the formula itself is unsat.
                // Record it permanently — the conflict path advanced qhead
                // past the falsified literals, so a later solve() would
                // otherwise never rediscover it.
                okay = false;
                if (proof)
                    proof->onDerive({});
                return SatResult::Unsat;
            }
            int btlevel = 0;
            uint32_t lbd = 0;
            analyze(confl, learned, btlevel, lbd);
            backtrack(btlevel);
            // Every learned clause (asserting 1UIP, minimized) is RUP
            // against the clause database that produced it: log it.
            if (proof)
                proof->onDerive(learned);
            if (learned.size() == 1) {
                enqueue(learned[0], kNoReason);
            } else {
                ClauseRef cref = allocClause(learned, true);
                learnts_.push_back(cref);
                setClauseLbd(cref, lbd);
                attachClause(cref);
                bumpClause(cref);
                enqueue(learned[0], cref);
                stats_.learnedClauses++;
                stats_.lbdSum += lbd;
                if (lbd <= 2)
                    stats_.glueClauses++;
                if (lbdHist_)
                    lbdHist_->record(lbd);
            }
            decayActivities();
            continue;
        }
        if (conflicts_this_restart >= restart_limit) {
            // Restart: keep assumptions logic simple by going to root.
            stats_.restarts++;
            restart_num++;
            restart_limit = 64 * luby(restart_num);
            conflicts_this_restart = 0;
            backtrack(0);
            reduceDB();
            continue;
        }
        // Apply pending assumptions as pseudo-decisions.
        Lit next;
        bool have_next = false;
        if (trailLim.size() < assumptions.size()) {
            Lit a = assumptions[trailLim.size()];
            LBool v = litValue(a);
            if (v == LBool::True) {
                // Already satisfied: open an empty decision level.
                trailLim.push_back(static_cast<int>(trail.size()));
                continue;
            }
            if (v == LBool::False) {
                // Conflicting assumption set: extract the failed-
                // assumption core (analyzeFinal) instead of bailing with
                // a bare Unsat. The core clause {~a : a in core} is RUP
                // against the live database; emitting it keeps the DRAT
                // closure self-contained and lets the BMC engine skip
                // future covers whose assumption sets contain the same
                // core.
                stats_.assumptionConflicts++;
                std::vector<Lit> core;
                analyzeFinal(~a, core);
                failed_.clear();
                for (Lit l : core)
                    failed_.push_back(~l);
                if (proof) {
                    std::vector<Lit> key = core;
                    std::sort(key.begin(), key.end());
                    key.erase(std::unique(key.begin(), key.end()),
                              key.end());
                    if (std::find(loggedCores_.begin(),
                                  loggedCores_.end(),
                                  key) == loggedCores_.end()) {
                        loggedCores_.push_back(std::move(key));
                        proof->onDerive(core);
                    }
                }
                return SatResult::Unsat;
            }
            next = a;
            have_next = true;
        }
        if (!have_next) {
            next = pickBranchLit();
            if (next.x < 0) {
                // All variables assigned: SAT. Under RMP_SAT_CHECK_MODELS
                // (exported by the test suite) self-check the model
                // against every clause so a solver bug can never silently
                // corrupt a verification verdict. (The BMC layer
                // additionally replays every witness on the simulator.)
                if (checkingInvariants()) {
                    auto check = [&](ClauseRef c) {
                        const Lit *lits = clauseLits(c);
                        uint32_t size = clauseSize(c);
                        bool any = false;
                        for (uint32_t k = 0; k < size; k++)
                            if (litValue(lits[k]) == LBool::True)
                                any = true;
                        rmp_assert(any, "SAT model violates a clause");
                    };
                    for (ClauseRef c : clauses_)
                        check(c);
                    for (ClauseRef c : learnts_)
                        check(c);
                }
                model.assign(trail.begin(), trail.end());
                return SatResult::Sat;
            }
            stats_.decisions++;
        }
        trailLim.push_back(static_cast<int>(trail.size()));
        enqueue(next, kNoReason);
    }
}

bool
Solver::modelValue(Var v) const
{
    return assigns[v] == LBool::True;
}

} // namespace rmp::sat
