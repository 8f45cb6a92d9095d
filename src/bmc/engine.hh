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
 *
 * With EngineConfig::coiPruning the engine unrolls, per query, only the
 * sequential cone of influence of the property's support signals
 * (analysis::backwardCone): queries whose cones coincide share one
 * incremental instance (unrolling + solver + learned clauses), and logic
 * outside the cone contributes no AIG nodes and no SAT variables. The
 * restriction is sound — the fixpoint cone is closed under every
 * dependency the unroller follows — so Reachable/Unreachable verdicts
 * are identical to full-design unrolling; only budget-exhaustion
 * (Undetermined) verdicts are instance-relative, which is why the cone
 * fingerprint participates in exec::QueryCache keys (DESIGN.md §3e).
 *
 * With EngineConfig::staticPrune the engine additionally consults the
 * abstract-interpretation fixpoint (analysis::absInterpret, DESIGN.md
 * §3i) before touching the solver: a cover whose sequence — or any of
 * whose assumes — evaluates to constant FALSE under the facts is
 * returned Unreachable without unrolling or solving. Only the FALSE
 * verdict of the ternary evaluator is consumed, and the facts
 * over-approximate every reachable-from-reset valuation, so a pruned
 * cover is genuinely unreachable and the verdict is identical to what
 * the solver would return. Under verdict auditing the query falls
 * through to the solver anyway and the two answers are cross-checked.
 */

#ifndef BMC_ENGINE_HH
#define BMC_ENGINE_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/absint.hh"
#include "analysis/coi.hh"
#include "bmc/unroll.hh"
#include "prop/property.hh"
#include "sat/drat.hh"
#include "sat/solver.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "sim/tape.hh"

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
 * the witness, which is what makes the cross-check meaningful. Also used
 * directly by the seeded-defect audit tests.
 */
ReplayCheck replayWitness(const Design &design,
                          const std::vector<InputMap> &inputs,
                          const prop::ExprRef &seq,
                          const std::vector<prop::ExprRef> &assumes,
                          unsigned bound);

/**
 * Compiled-engine counterpart of replayWitness(): replays @p inputs on a
 * single-lane sim::BatchSim over @p tape and evaluates the same match /
 * assume conditions. @p tape must watch every signal the sequence and
 * assumes read (Engine maintains such a tape under
 * EngineConfig::compiledReplay). The returned trace is sparse: only
 * watched signals carry values. Never used by the verdict audit, which
 * stays on the interpreted oracle (DESIGN.md §3g/§3h).
 */
ReplayCheck replayWitnessCompiled(
    const sim::Tape &tape, const Design &design,
    const std::vector<InputMap> &inputs, const prop::ExprRef &seq,
    const std::vector<prop::ExprRef> &assumes, unsigned bound);

/** Kleene truth value of a property under time-invariant facts. */
enum class StaticTern : int8_t { False = 0, True = 1, Unknown = 2 };

/**
 * Ternary verdict of @p e on every reachable cycle, judged only from the
 * absint facts. False means: no cycle of any reachable-from-reset trace
 * satisfies @p e — facts hold on every such cycle, so a signal predicate
 * the facts refute is refuted always. True is best-effort (##-delayed
 * sequences never report True: the bounded semantics can falsify them
 * near the unrolling bound); Unknown is always sound. The engine's
 * static pruning consumes the False direction only.
 */
StaticTern staticEval(const Design &design, const analysis::AbsFacts &facts,
                      const prop::ExprRef &e);

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
 * Proof contexts are cumulative per solver instance, so a verdict is
 * identified by (instance ordinal, input-clause count at verdict time,
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
    /** Engine::proofContext() ordinal of the answering instance. */
    uint32_t ctxOrdinal = 0;
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
     *  invalid for verdicts discharged without the solver — constant
     *  folding, vacuous assumes, static pruning). */
    ProofRef proof;

    /** @name Instance-size statistics (0 on cache hits)
     * Size of the unrolled instance that answered this query, after the
     * query ran: cells materialized (== the COI size under pruning, the
     * whole design otherwise), AIG nodes, and SAT variables. Shared
     * incremental instances make these cumulative per instance, not
     * per query. */
    /// @{
    uint32_t coiCells = 0;
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
    /** Replay every witness on the simulator (soundness cross-check). */
    bool validateWitnesses = true;
    /**
     * Unroll only each query's sequential cone of influence. Verdicts
     * match full unrolling exactly except at SAT-budget boundaries
     * (Undetermined is instance-relative); both modes are individually
     * deterministic and jobs-invariant.
     */
    bool coiPruning = false;
    /**
     * Audit Reachable verdicts: decode the SAT witness into per-cycle
     * input stimulus, replay it through the rtlir simulator, and record
     * (not assert) a mismatch if the cover fails to fire or an assume is
     * violated. Unlike validateWitnesses — which hard-asserts — audit
     * mismatches surface through CoverResult::audit so callers can
     * report them and quarantine the result (DESIGN.md §3g).
     */
    bool auditReplay = false;
    /**
     * Audit Unreachable verdicts: attach a sat::DratChecker to each
     * instance's solver (RUP-checking every learned clause as it is
     * derived) and close each unsat frame with
     * DratChecker::checkUnsat(assumptions). Verdicts that never reach
     * the solver (vacuous assumes, constant-false cover literals) are
     * discharged by AIG constant folding, which stays in the trusted
     * base — they are counted as neither checked nor mismatched.
     */
    bool auditProof = false;
    /**
     * Validate witnesses on the compiled op-tape engine instead of the
     * interpreted simulator. Witness traces then become sparse watch-set
     * traces covering witnessWatch plus the query's support signals —
     * callers that read other signals from witness traces must leave
     * this off (the default). Ignored whenever auditReplay is set: the
     * audit's whole point is the independent interpreted oracle, so it
     * never rides the engine it is meant to check.
     */
    bool compiledReplay = false;
    /**
     * Signals witness traces must expose under compiledReplay beyond
     * the query's own support (e.g. the harness PL trackers μPATH
     * construction reads). Deduplicated; order irrelevant.
     */
    std::vector<SigId> witnessWatch;
    /**
     * Discharge covers statically: a query whose sequence or assumes
     * are constant-false under the absint fixpoint returns Unreachable
     * without touching the unroller or solver. Sound (facts
     * over-approximate all reachable-from-reset traces; only the FALSE
     * direction is consumed) and verdict-identical to solving. With
     * auditReplay/auditProof the solver runs anyway and disagreements
     * are recorded as audit mismatches. Also narrows COI cones through
     * statically fixed mux selects when coiPruning is on.
     */
    bool staticPrune = false;
    /**
     * Facts consulted by staticPrune, shared across engines (EnginePool
     * computes them once per design). Computed by the engine itself
     * when null and staticPrune is set.
     */
    std::shared_ptr<const analysis::AbsFacts> staticFacts;
    /**
     * Record each solver instance's clausal trace (sat::DratLogRecorder)
     * and stamp every solver-issued Unreachable verdict with a
     * CoverResult::proof prefix reference, so the verdict store can
     * persist re-checkable proofs. Independent of auditProof (the two
     * sinks tee through sat::ProofFanout when both are on); costs memory
     * proportional to the trace, nothing when off.
     */
    bool captureProof = false;
    /**
     * Optional shared query log; every instance's solver appends its
     * addClause()/solve() stream to it (sat::SatQueryLog). Used by
     * bench_perf_sat to replay an entire synthesis run against the
     * frozen pre-arena solver. Not owned; nullptr (the default) is
     * free.
     */
    sat::SatQueryLog *queryLog = nullptr;
};

/** Aggregate query statistics (reported by bench_perf_properties). */
struct EngineStats
{
    uint64_t queries = 0;
    uint64_t reachable = 0;
    uint64_t unreachable = 0;
    uint64_t undetermined = 0;
    /** Of unreachable, verdicts discharged by the absint facts alone
     *  (no SAT query; counted even when auditing re-proves them). */
    uint64_t staticPruned = 0;
    /** Of unreachable, verdicts discharged by a remembered failed-
     *  assumption core (no SAT search; the core clause already in the
     *  instance's proof trace closes them). */
    uint64_t assumptionCoreHits = 0;
    double totalSeconds = 0.0;
    /** @name Verdict-audit tallies (zero unless auditing is on) */
    /// @{
    uint64_t auditReplayed = 0;
    uint64_t auditProofChecked = 0;
    uint64_t auditMismatches = 0;
    /// @}
};

/** COI statistics (reported through src/report and BENCH_static_coi). */
struct CoiStats
{
    /** Queries answered (matches EngineStats::queries). */
    uint64_t queries = 0;
    /** Sum over queries of the answering instance's cell count. */
    uint64_t coneCells = 0;
    /** Sum over queries of the full design's cell count. */
    uint64_t designCells = 0;
    /** Distinct unrolled instances (1 when pruning is off). */
    uint64_t conesBuilt = 0;
    /** AIG nodes across all live instances. */
    uint64_t aigNodes = 0;
    /** SAT variables across all live instances. */
    uint64_t satVars = 0;
};

/**
 * Incremental cover/assume evaluator over one design.
 *
 * Queries with the same cone (the whole design when pruning is off)
 * share an unrolled CNF and that solver's learned clauses; per-query
 * constraints enter as SAT assumptions only.
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
    /** Solver instances created so far (ProofRef::ctxOrdinal range). */
    uint32_t numProofContexts() const
    {
        return static_cast<uint32_t>(ctxOrder_.size());
    }
    /**
     * The trace recorder of instance @p ordinal (captureProof only;
     * nullptr for unknown ordinals or when capture is off). Cumulative:
     * serialize once per instance, reference per verdict via ProofRef
     * prefix counts.
     */
    const sat::DratLogRecorder *proofContext(uint32_t ordinal) const;
    /** COI statistics (instance sizes; meaningful with pruning too off). */
    CoiStats coiStats() const;
    /** Underlying solver statistics, summed across instances. */
    sat::SatStats satStats() const;
    const Design &design() const { return d; }
    unsigned bound() const { return cfg.bound; }
    const EngineConfig &config() const { return cfg; }

  private:
    /** One unrolled instance: full design, or one support cone. */
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
        /** Cells this instance materializes. */
        uint32_t cells = 0;
        /** Creation-order index (ProofRef::ctxOrdinal). */
        uint32_t ordinal = 0;
        /**
         * Failed-assumption cores this instance's solver has proven
         * (sorted literal sets). A query whose assumption set contains
         * one is Unreachable without solving: the corresponding core
         * clause was emitted into the proof trace when first derived,
         * so DRAT closure (live audit and stored prefixes alike) still
         * discharges the verdict. Bounded; see kMaxFailedCores.
         */
        std::vector<std::vector<sat::Lit>> failedCores;

        Ctx(const Design &dd, std::vector<uint8_t> mask,
            std::vector<int8_t> mux_sel, uint32_t n, bool audit_proof,
            bool capture_proof, sat::SatQueryLog *qlog, uint32_t ord)
            : unrolling(dd, std::move(mask), std::move(mux_sel)), cells(n),
              ordinal(ord)
        {
            if (qlog)
                solver.attachQueryLog(qlog);
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

    /** Instance answering queries over @p seq / @p assumes. */
    Ctx &ctxFor(const prop::ExprRef &seq,
                const std::vector<prop::ExprRef> &assumes);

    /** Tseitin-encode @p lit's cone; returns the SAT literal. */
    sat::Lit satLit(Ctx &ctx, AigLit lit);

    Witness extractWitness(Ctx &ctx, const prop::ExprRef &seq,
                           const std::vector<prop::ExprRef> &assumes,
                           VerdictAudit *audit);

    /**
     * The replay tape for @p seq / @p assumes (compiledReplay only):
     * lazily compiled against witnessWatch plus every support signal
     * seen so far, recompiled only when a query's support grows the
     * watch closure.
     */
    const sim::Tape &replayTapeFor(const prop::ExprRef &seq,
                                   const std::vector<prop::ExprRef> &assumes);

    /** True iff staticPrune proves this query Unreachable. */
    bool staticallyFalse(const prop::ExprRef &seq,
                         const std::vector<prop::ExprRef> &assumes) const;

    const Design &d;
    EngineConfig cfg;
    /** Fixed mux selects (staticPrune && coiPruning only; else empty). */
    std::vector<int8_t> muxSel_;
    /** The full-design instance (absent under COI pruning). */
    std::unique_ptr<Ctx> full_;
    /** Cone fingerprint -> instance (COI pruning only). */
    std::unordered_map<uint64_t, std::unique_ptr<Ctx>> cones_;
    /** Every instance in creation order (full_ first when present);
     *  indexed by Ctx::ordinal. Non-owning. */
    std::vector<Ctx *> ctxOrder_;
    EngineStats stats_;
    CoiStats coi_;
    /** @name Compiled witness-replay state (compiledReplay only) */
    /// @{
    std::unique_ptr<sim::Tape> replayTape_;
    std::vector<SigId> replayWatch_;
    std::vector<uint8_t> replayWatched_; ///< bitmap over SigIds
    /** Memoized constant folding across watch-closure recompiles. */
    sim::FoldCache replayFold_;
    /// @}
};

} // namespace rmp::bmc

#endif // BMC_ENGINE_HH
