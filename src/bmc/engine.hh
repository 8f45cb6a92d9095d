/**
 * @file
 * The bounded model-checking engine: the reproduction's stand-in for the
 * paper's JasperGold runs.
 *
 * Evaluates cover properties subject to always-assumes over a shared
 * incremental unrolling: one CNF per (design, bound) reused across the
 * thousands of template-instantiated queries RTL2MμPATH and SynthLC issue,
 * with per-query SAT assumptions. Outcomes follow the paper exactly:
 *
 *  - Reachable: a witness trace exists (extracted, and independently
 *    re-validated on the rtlir simulator before being reported);
 *  - Unreachable: UNSAT across all start frames up to the design's
 *    completeness bound — sound because each DUV provably drains an
 *    instruction within that bound (DESIGN.md §5);
 *  - Undetermined: the per-query SAT budget was exhausted (the paper's
 *    timeout verdict, §VII-B3/B4).
 */

#ifndef BMC_ENGINE_HH
#define BMC_ENGINE_HH

#include <memory>
#include <string>
#include <vector>

#include "bmc/unroll.hh"
#include "prop/property.hh"
#include "sat/drat.hh"
#include "sat/solver.hh"
#include "sim/simulator.hh"

namespace rmp::bmc
{

/** The paper's three verifier verdicts. */
enum class Outcome : uint8_t { Reachable, Unreachable, Undetermined };

const char *outcomeName(Outcome o);

/** Verdict of replayWitness(). */
struct ReplayCheck
{
    /** The covered sequence fired on the replayed trace. */
    bool matched = false;
    /** First frame at which it fired (valid iff matched). */
    unsigned matchFrame = 0;
    /** Every assume held at every constrained cycle. */
    bool assumesHold = true;
    /** First cycle at which an assume failed (valid iff !assumesHold). */
    unsigned failCycle = 0;
    /** The replayed trace (all signals, all cycles). */
    SimTrace trace;

    bool ok() const { return matched && assumesHold; }
};

/**
 * Replay @p inputs cycle by cycle through a fresh rtlir simulator and
 * report whether @p seq fires within [0, bound) and every assume in
 * @p assumes holds at each cycle it constrains. This is the witness
 * oracle: it shares no code with the unroller/solver path that produced
 * the witness, which is what makes the cross-check meaningful. It is the
 * engine's only witness check (plain validation and the verdict audit
 * alike), and its full trace is the one a query-cache or verdict-store
 * hit re-derives. Also used directly by the seeded-defect audit tests.
 */
ReplayCheck replayWitness(const Design &design,
                          const std::vector<InputMap> &inputs,
                          const prop::ExprRef &seq,
                          const std::vector<prop::ExprRef> &assumes,
                          unsigned bound);

/** A concrete witness for a Reachable cover. */
struct Witness
{
    /** Input valuations per cycle, replayable on the simulator. */
    std::vector<InputMap> inputs;
    /** Start frame at which the covered sequence matched. */
    unsigned matchFrame = 0;
    /** The replayed trace (all signals, all cycles). */
    SimTrace trace;
};

/**
 * Outcome of auditing one verdict (EngineConfig::auditReplay /
 * auditProof). A mismatch means the evidence did NOT support the verdict
 * — a solver or engine defect, never a property of the design — and is
 * recorded rather than asserted so the caller (exec::EnginePool, the
 * CLI) can fail loudly with context and keep the poisoned result out of
 * the query cache.
 */
struct VerdictAudit
{
    /** Witness was replayed through the rtlir simulator. */
    bool replayed = false;
    /** Unsat verdict was closed against the DRAT trace. */
    bool proofChecked = false;
    /** The evidence contradicted the verdict. */
    bool mismatch = false;
    /** Human-readable description of the mismatch ("" if none). */
    std::string detail;
};

/**
 * Reference into a proof context (EngineConfig::captureProof): enough to
 * replay the DRAT prefix that closes one Unreachable verdict offline.
 * An engine's proof context is cumulative over its one solver, so a
 * verdict is identified by (input-clause count at verdict time,
 * proof-step count at verdict time, this query's assumption literals):
 * feeding the first @ref inputCount inputs and first @ref stepCount steps
 * of the context into a fresh sat::DratChecker and closing with
 * checkUnsat(@ref assumptions) must succeed. Soundness of prefix replay:
 * additions are RUP against exactly the clauses live when they were
 * derived, and the live set at any prefix is a function of the prefix
 * alone.
 */
struct ProofRef
{
    /** A proof context exists for this verdict. */
    bool valid = false;
    /** Input clauses recorded when the verdict was issued. */
    uint64_t inputCount = 0;
    /** Proof steps recorded when the verdict was issued. */
    uint64_t stepCount = 0;
    /** Assumption literals of this query (assumes first, cover literal
     *  last, matching the solver call). */
    std::vector<sat::Lit> assumptions;
};

/** Result of one cover query. */
struct CoverResult
{
    Outcome outcome = Outcome::Undetermined;
    Witness witness; ///< valid iff outcome == Reachable
    double seconds = 0.0;
    VerdictAudit audit; ///< populated when verdict auditing is on
    /** Proof prefix closing an Unreachable verdict (captureProof only;
     *  invalid for verdicts discharged without the solver by AIG
     *  constant folding: a constant-false cover or vacuous assumes). */
    ProofRef proof;

    /** @name Instance-size statistics (0 on cache hits)
     * Size of the engine's unrolled instance after the query ran: AIG
     * nodes and SAT variables. The instance is shared by every query on
     * the engine, so these are cumulative, not per query. */
    /// @{
    uint64_t aigNodes = 0;
    uint64_t satVars = 0;
    /// @}

    bool reachable() const { return outcome == Outcome::Reachable; }
    bool unreachable() const { return outcome == Outcome::Unreachable; }
};

/** Engine configuration. */
struct EngineConfig
{
    /** Unrolling depth == the design's completeness bound. */
    unsigned bound = 16;
    /** Per-query SAT budget; exhaustion yields Undetermined. */
    sat::SatBudget budget{};
    /**
     * Audit Reachable verdicts: record (not assert) a mismatch if the
     * replayed witness fails to fire the cover or violates an assume.
     * Every witness is replayed on the rtlir simulator either way; off,
     * a mismatch hard-asserts, while audit mismatches surface through
     * CoverResult::audit so callers can report them and quarantine the
     * result (DESIGN.md §3g).
     */
    bool auditReplay = false;
    /**
     * Audit Unreachable verdicts: attach a sat::DratChecker to the
     * engine's solver (RUP-checking every learned clause as it is
     * derived) and close each unsat frame with
     * DratChecker::checkUnsat(assumptions). Verdicts that never reach
     * the solver (vacuous assumes, constant-false cover literals) are
     * discharged by AIG constant folding, which stays in the trusted
     * base — they are counted as neither checked nor mismatched.
     */
    bool auditProof = false;
    /**
     * Record the solver's clausal trace (sat::DratLogRecorder)
     * and stamp every solver-issued Unreachable verdict with a
     * CoverResult::proof prefix reference, so the verdict store can
     * persist re-checkable proofs. Independent of auditProof (the two
     * sinks tee through sat::ProofFanout when both are on); costs memory
     * proportional to the trace, nothing when off.
     */
    bool captureProof = false;
};

/** Aggregate query statistics (reported by bench_perf_properties). */
struct EngineStats
{
    uint64_t queries = 0;
    uint64_t reachable = 0;
    uint64_t unreachable = 0;
    uint64_t undetermined = 0;
    /** Always 0: the removed static cover prune counted here. Kept
     *  only because the benchmark harness reads it
     *  (rmpbench/src/oneshot.cc:59,161); delete it with those lines. */
    uint64_t staticPruned = 0;
    /** Of unreachable, verdicts discharged by a remembered failed-
     *  assumption core (no SAT search; the core clause already in the
     *  solver's proof trace closes them). */
    uint64_t assumptionCoreHits = 0;
    double totalSeconds = 0.0;
    /** @name Verdict-audit tallies (zero unless auditing is on) */
    /// @{
    uint64_t auditReplayed = 0;
    uint64_t auditProofChecked = 0;
    uint64_t auditMismatches = 0;
    /// @}
};

/**
 * Size of an engine's unrolled instance. Named after the removed
 * cone-of-influence mode only because exec::PoolStats::coi carries it,
 * and the benchmark harness (rmpbench/src/oneshot.cc) reads that field;
 * rename both with those lines.
 */
struct CoiStats
{
    /** AIG nodes of the unrolling. */
    uint64_t aigNodes = 0;
    /** SAT variables of the solver. */
    uint64_t satVars = 0;
};

/**
 * Incremental cover/assume evaluator over one design.
 *
 * Every query shares one full-design unrolled CNF and its solver's
 * learned clauses; per-query constraints enter as SAT assumptions only.
 */
class Engine
{
  public:
    Engine(const Design &design, const EngineConfig &config);

    /**
     * Evaluate `cover (seq)` under `assume (a)` for every a in @p assumes
     * holding at all cycles. The sequence may match starting at any frame
     * in [0, bound).
     */
    CoverResult cover(const prop::ExprRef &seq,
                      const std::vector<prop::ExprRef> &assumes);

    /** Like cover(), but the sequence must match starting at @p frame. */
    CoverResult coverAt(const prop::ExprRef &seq,
                        const std::vector<prop::ExprRef> &assumes,
                        unsigned frame);

    /** Verdicts of prove(). */
    enum class ProveOutcome : uint8_t { Proven, Falsified, Undetermined };

    /**
     * Bounded safety proof: "@p invariant holds at every cycle" (under
     * the assumes). A cover of the negation decides it: Unreachable ->
     * Proven (up to the bound), Reachable -> Falsified with the
     * counterexample in @p cex (if non-null).
     */
    ProveOutcome prove(const prop::ExprRef &invariant,
                       const std::vector<prop::ExprRef> &assumes,
                       Witness *cex = nullptr);

    const EngineStats &stats() const { return stats_; }
    /**
     * The solver's trace recorder (captureProof only; nullptr when
     * capture is off). Cumulative: serialize once, reference per verdict
     * via ProofRef prefix counts.
     */
    const sat::DratLogRecorder *proofContext() const
    {
        return ctx_.recorder.get();
    }
    /** Instance size of the unrolling and its solver. */
    CoiStats coiStats() const;
    /** Underlying solver statistics. */
    const sat::SatStats &satStats() const { return ctx_.solver.stats(); }
    const Design &design() const { return d; }
    unsigned bound() const { return cfg.bound; }
    const EngineConfig &config() const { return cfg; }

  private:
    /** The unrolled instance and its solver state. */
    struct Ctx
    {
        Unrolling unrolling;
        sat::Solver solver;
        /** Live proof checker (auditProof only); attached to the solver
         *  before the first clause so the trace covers the formula. */
        std::unique_ptr<sat::DratChecker> drat;
        /** Trace recorder (captureProof only): the persistent-proof
         *  counterpart of drat, same attach-before-first-clause rule. */
        std::unique_ptr<sat::DratLogRecorder> recorder;
        /** Tee when both sinks are live (the solver takes one sink). */
        std::unique_ptr<sat::ProofFanout> fanout;
        /** AIG node -> SAT var (-1 = not yet encoded). */
        std::vector<int32_t> nodeVar;
        /**
         * Failed-assumption cores the solver has proven
         * (sorted literal sets). A query whose assumption set contains
         * one is Unreachable without solving: the corresponding core
         * clause was emitted into the proof trace when first derived,
         * so DRAT closure (live audit and stored prefixes alike) still
         * discharges the verdict. Bounded; see kMaxFailedCores.
         */
        std::vector<std::vector<sat::Lit>> failedCores;

        Ctx(const Design &dd, bool audit_proof, bool capture_proof)
            : unrolling(dd)
        {
            if (audit_proof)
                drat = std::make_unique<sat::DratChecker>();
            if (capture_proof)
                recorder = std::make_unique<sat::DratLogRecorder>();
            if (drat && recorder) {
                fanout = std::make_unique<sat::ProofFanout>();
                fanout->attach(drat.get());
                fanout->attach(recorder.get());
                solver.setProofSink(fanout.get());
            } else if (drat) {
                solver.setProofSink(drat.get());
            } else if (recorder) {
                solver.setProofSink(recorder.get());
            }
        }
    };

    CoverResult run(const prop::ExprRef &seq,
                    const std::vector<prop::ExprRef> &assumes,
                    int fixed_frame);

    /** Tseitin-encode @p lit's cone; returns the SAT literal. */
    sat::Lit satLit(AigLit lit);

    Witness extractWitness(const prop::ExprRef &seq,
                           const std::vector<prop::ExprRef> &assumes,
                           VerdictAudit *audit);

    const Design &d;
    EngineConfig cfg;
    Ctx ctx_;
    EngineStats stats_;
};

} // namespace rmp::bmc

#endif // BMC_ENGINE_HH
