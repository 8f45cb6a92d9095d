/**
 * @file
 * CDCL SAT solver used by the BMC engine.
 *
 * Plays the role of the paper's JasperGold property verifier back end.
 * Feature set: two-watched-literal propagation over a flat clause arena
 * (header + inline literals, 32-bit refs, compacting GC), 1UIP
 * conflict-driven clause learning with clause minimization, LBD (glue)
 * scoring with a geometrically growing learned-DB limit, VSIDS-style
 * activity with phase saving, Luby restarts, incremental solving under
 * assumptions with failed-assumption cores (analyzeFinal) and trail
 * saving across calls that share an assumption prefix, and
 * conflict/propagation budgets that yield an Undetermined outcome (the
 * paper's third verifier verdict, §V-B / §VII-B3).
 */

#ifndef SAT_SOLVER_HH
#define SAT_SOLVER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rmp::obs
{
class Histogram;
}

namespace rmp::sat
{

/** Variable index, 0-based. */
using Var = int32_t;

/** Literal: var * 2 + (negated ? 1 : 0). */
struct Lit
{
    int32_t x = -2;

    Lit() = default;
    Lit(Var v, bool neg) : x(v * 2 + (neg ? 1 : 0)) {}

    Var var() const { return x >> 1; }
    bool sign() const { return x & 1; }
    Lit operator~() const
    {
        Lit l;
        l.x = x ^ 1;
        return l;
    }
    bool operator==(const Lit &o) const { return x == o.x; }
    bool operator!=(const Lit &o) const { return x != o.x; }
    bool operator<(const Lit &o) const { return x < o.x; }
};

/** Positive literal of @p v. */
inline Lit mkLit(Var v) { return Lit(v, false); }

/** Three-valued assignment. */
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

/** Solver outcome. */
enum class SatResult : uint8_t
{
    Sat,          ///< satisfying assignment found
    Unsat,        ///< proven unsatisfiable (under the given assumptions)
    Undetermined, ///< budget exhausted (the paper's timeout outcome)
};

/**
 * Resource budgets; 0 means unlimited.
 *
 * Budgets are compared against per-solve() deltas at a single
 * deterministic point — the top of the search loop, before the next
 * propagation/decision — so a given (formula, budget) pair on a fresh
 * solver always exhausts at exactly the same step, independent of
 * phase-saving, restart timing, or how the previous iteration happened
 * to interleave conflicts and propagations.
 */
struct SatBudget
{
    uint64_t maxConflicts = 0;
    uint64_t maxPropagations = 0;
};

/**
 * Receives the solver's clausal proof trace (the DRAT subset described
 * in sat/drat.hh). onInput() sees every problem clause exactly as handed
 * to addClause() (pre-simplification); onDerive() sees every clause the
 * solver claims follows from them — learned clauses, root-level units,
 * failed-assumption cores, and the empty clause on refutation;
 * onDelete() sees learned clauses dropped by DB reduction. Callbacks run
 * synchronously on the solving thread. Install with setProofSink()
 * *before* adding clauses.
 */
class ProofSink
{
  public:
    virtual ~ProofSink() = default;
    virtual void onInput(const std::vector<Lit> &lits) = 0;
    virtual void onDerive(const std::vector<Lit> &lits) = 0;
    virtual void onDelete(const std::vector<Lit> &lits) = 0;
};

/** Cumulative statistics, reported by bench_perf_properties. */
struct SatStats
{
    uint64_t conflicts = 0;
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    uint64_t learnedClauses = 0;
    uint64_t removedClauses = 0;
    /** reduceDB passes that actually removed learned clauses. */
    uint64_t dbReductions = 0;
    /** Arena compaction (garbage collection) passes. */
    uint64_t gcPasses = 0;
    /** Unsat results established by a failed-assumption core. */
    uint64_t assumptionConflicts = 0;
    /** Trail literals kept across solve() calls by prefix saving. */
    uint64_t savedTrailLits = 0;
    /** Sum of LBD over learned clauses (avg = lbdSum/learnedClauses). */
    uint64_t lbdSum = 0;
    /** Learned clauses with LBD <= 2 (glue; never deleted). */
    uint64_t glueClauses = 0;
};

/**
 * The CDCL solver.
 *
 * Usage: newVar()/addClause() to build the formula, then solve() —
 * optionally under assumptions, enabling incremental reuse of the clause
 * database and learned clauses across queries on the same unrolling.
 */
class Solver
{
  public:
    Solver();

    /** Create a fresh variable; returns its index. */
    Var newVar();

    /** Number of variables. */
    int numVars() const { return static_cast<int>(assigns.size()); }

    /** Number of clauses in the database (original + learned). */
    size_t numClauses() const { return clauses_.size() + learnts_.size(); }

    /** Live learned clauses currently in the database. */
    size_t numLearnts() const { return learnts_.size(); }

    /** Arena footprint in 32-bit words (live + tombstoned). */
    size_t arenaWords() const { return arena_.size(); }

    /** Tombstoned words awaiting the next GC pass. */
    size_t wastedWords() const { return wasted_; }

    /**
     * Add a clause (disjunction of literals).
     * @return false if the formula is already trivially unsat.
     */
    bool addClause(std::vector<Lit> lits);

    /** Convenience overloads. */
    bool addClause(Lit a) { return addClause(std::vector<Lit>{a}); }
    bool addClause(Lit a, Lit b) { return addClause(std::vector<Lit>{a, b}); }
    bool
    addClause(Lit a, Lit b, Lit c)
    {
        return addClause(std::vector<Lit>{a, b, c});
    }

    /**
     * Solve under optional assumptions with optional budget.
     *
     * When observability is on (obs::enabled) each call records a
     * `sat-solve` span carrying the decision/conflict/propagation/
     * restart/learned-clause deltas of this call, and folds the same
     * deltas into the global metrics registry.
     */
    SatResult solve(const std::vector<Lit> &assumptions = {},
                    const SatBudget &budget = {});

    /** Model value of @p v after a Sat result. */
    bool modelValue(Var v) const;

    /**
     * After an Unsat result under assumptions: the subset of the passed
     * assumptions that analyzeFinal identified as sufficient for the
     * conflict (the "failed-assumption core"). The corresponding core
     * clause (the negations of these literals) was emitted to the proof
     * sink as a derivation, so any future query whose assumption set
     * contains this core is unsat by that clause alone — the BMC engine
     * uses this to skip repeat covers. Empty after a root-level
     * (assumption-free) refutation.
     */
    const std::vector<Lit> &failedAssumptions() const { return failed_; }

    /**
     * Install a proof sink (nullptr to detach). Must be installed before
     * the first addClause() for the trace to cover the whole formula;
     * the solver never takes ownership.
     */
    void setProofSink(ProofSink *sink) { proof = sink; }

    /** Statistics accumulated across all solve() calls. */
    const SatStats &stats() const { return stats_; }

    /**
     * Verify the watch-list and arena invariants: every live clause of
     * size >= 2 is watched on exactly its first two literals, every
     * watcher points at a live clause that watches that literal, and the
     * arena's accounting (live words + wasted == size) balances. Runs
     * automatically at every reduceDB()/GC boundary when
     * RMP_SAT_CHECK_MODELS is set; tests may call it directly.
     */
    void debugCheckInvariants() const;

  private:
    /**
     * Clause arena reference: word offset of the clause header in
     * arena_. Clauses are laid out as three header words — word0 =
     * size<<3 | learned<<2 | dead<<1 | relocated, word1 = activity
     * (float bits) or the forwarding ref during GC, word2 = LBD —
     * followed by the literals inline. 32-bit refs halve the pointer
     * footprint of the old vector-of-vectors DB and make watch lists
     * cache-dense.
     */
    using ClauseRef = uint32_t;
    static constexpr ClauseRef kNoReason = 0xFFFFFFFFu;
    static constexpr uint32_t kHeaderWords = 3;

    struct Watcher
    {
        ClauseRef cref;
        Lit blocker;
    };

    /** @name Arena accessors */
    /// @{
    ClauseRef allocClause(const std::vector<Lit> &lits, bool learned);
    uint32_t clauseSize(ClauseRef c) const { return arena_[c] >> 3; }
    bool clauseLearned(ClauseRef c) const { return arena_[c] & 4; }
    bool clauseDead(ClauseRef c) const { return arena_[c] & 2; }
    void markDead(ClauseRef c);
    float clauseActivity(ClauseRef c) const;
    void setClauseActivity(ClauseRef c, float a);
    uint32_t clauseLbd(ClauseRef c) const { return arena_[c + 2]; }
    void setClauseLbd(ClauseRef c, uint32_t l) { arena_[c + 2] = l; }
    Lit *clauseLits(ClauseRef c)
    {
        return reinterpret_cast<Lit *>(&arena_[c + kHeaderWords]);
    }
    const Lit *clauseLits(ClauseRef c) const
    {
        return reinterpret_cast<const Lit *>(&arena_[c + kHeaderWords]);
    }
    /// @}

    SatResult solveLoop(const std::vector<Lit> &assumptions,
                        const SatBudget &budget);
    LBool litValue(Lit l) const;
    void enqueue(Lit l, ClauseRef reason);
    ClauseRef propagate();
    void analyze(ClauseRef confl, std::vector<Lit> &out_learned,
                 int &out_btlevel, uint32_t &out_lbd);
    void analyzeFinal(Lit p, std::vector<Lit> &out_core);
    bool litRedundant(Lit l, uint32_t abstract_levels);
    void backtrack(int level);
    int sharedAssumptionPrefix(const std::vector<Lit> &assumptions) const;
    Lit pickBranchLit();
    void bumpVar(Var v);
    void bumpClause(ClauseRef c);
    void decayActivities();
    uint32_t computeLbd(const std::vector<Lit> &lits);
    void reduceDB();
    void garbageCollect();
    void rebuildWatches();
    void attachClause(ClauseRef cref);
    bool checkingInvariants() const;
    static uint64_t luby(uint64_t i);

    std::vector<uint32_t> arena_;     ///< flat clause storage
    size_t wasted_ = 0;               ///< tombstoned words in arena_
    std::vector<ClauseRef> clauses_;  ///< live problem clauses
    std::vector<ClauseRef> learnts_;  ///< live learned clauses
    size_t reduceLimit_ = 2000;       ///< learned-DB size trigger
    std::vector<std::vector<Watcher>> watches; // indexed by Lit.x
    std::vector<LBool> assigns;
    std::vector<bool> savedPhase;
    std::vector<int> level;
    std::vector<ClauseRef> reason;
    std::vector<Lit> trail;
    std::vector<int> trailLim;
    size_t qhead = 0;

    /** Assumptions of the previous solve(), for trail saving. */
    std::vector<Lit> lastAssumptions_;

    /** @name Activity-ordered decision heap (MiniSat-style) */
    /// @{
    void heapInsert(Var v);
    void heapPercolateUp(int i);
    void heapPercolateDown(int i);
    bool heapLess(Var a, Var b) const { return activity[a] > activity[b]; }
    std::vector<Var> heap;
    std::vector<int> heapPos; ///< -1 if not in heap
    /// @}

    std::vector<double> activity;
    double varInc = 1.0;
    double claInc = 1.0;
    std::vector<uint8_t> seen;
    /** Failed-assumption cores already emitted to the proof sink, so
     *  repeat conflicts do not flood the trace (exact match, not a
     *  hash: the BMC core cache relies on every distinct core having
     *  been logged). Stored sorted. */
    std::vector<std::vector<Lit>> loggedCores_;
    /** @name computeLbd scratch (level -> generation stamp) */
    /// @{
    std::vector<uint64_t> lbdMark_;
    uint64_t lbdGen_ = 0;
    /// @}
    obs::Histogram *lbdHist_ = nullptr; ///< cached while obs is enabled

    bool okay = true;
    SatStats stats_;
    std::vector<Lit> model;
    std::vector<Lit> failed_;
    ProofSink *proof = nullptr;
};

} // namespace rmp::sat

#endif // SAT_SOLVER_HH
