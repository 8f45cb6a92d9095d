/**
 * @file
 * RTL2MμPATH: multi-μPATH synthesis from a harnessed netlist (§V-B).
 *
 * The synthesis pipeline mirrors the paper step by step:
 *   1. PL reachability for the DUV (any instruction),
 *   2. PL reachability for the IUV,
 *   3. fine-grained pruning via dominates / exclusive / mandatory facts,
 *   4. PL-set reachability (exact-visited-set covers) -> Reachable PL Sets,
 *   5. revisit classification (consecutive / non-consecutive) per set,
 *   6. happens-before edge synthesis from combinational-connectivity
 *      candidates, evaluated per Reachable PL Set,
 *   7. (optional) revisit cycle-count enumeration (§V-B6 mode (i)),
 *   8. decision synthesis: exact-successor-set covers per decision source
 *      (§IV-B), consumed by SynthLC.
 *
 * Every fact above is established by a cover property evaluated by the BMC
 * engine; Reachable verdicts carry simulator-replayed witnesses from which
 * the concrete cycle-accurate schedules (the μHB graphs of the figures)
 * are extracted.
 */

#ifndef RTL2MUPATH_SYNTH_HH
#define RTL2MUPATH_SYNTH_HH

#include <map>
#include <string>
#include <vector>

#include "bmc/engine.hh"
#include "designs/harness.hh"
#include "exec/engine_pool.hh"
#include "rtl2mupath/sim_explore.hh"
#include "uhb/graph.hh"

namespace rmp::r2m
{

/** Synthesis configuration. */
struct SynthesisConfig
{
    /** Per-query SAT budget (0 = unlimited). A cover that exhausts it
     *  is Undetermined and counts as unreachable, the paper's reading
     *  of a timeout (§VII-B3/B4). */
    sat::SatBudget budget{};
    /**
     * Seed the synthesis with randomized-simulation exploration: facts
     * discovered by simulation are Reachable-with-witness and skip their
     * BMC covers; the engine then only runs closure and negative queries
     * (the semi-formal mode; see sim_explore.hh).
     */
    bool useSimExploration = true;
    SimExploreConfig explore{};
    /**
     * Run the BMC closure/negative queries (IUV-PL unreachability,
     * no-revisit/no-edge proofs, decision and count closure). When false,
     * only the Reachable-PL-Set closure query runs and everything else is
     * taken from simulation witnesses — the fast semi-formal profile the
     * benches use by default (equivalent to the paper's regime where the
     * remaining covers all time out and are read as unreachable,
     * §VII-B4).
     */
    bool closureChecks = true;
    /** Enumerate achievable visit counts per revisited PL (§V-B6 (i)). */
    bool revisitCounts = false;
    /** Largest visit count probed when revisitCounts is on. */
    unsigned maxRevisitCount = 16;
    /**
     * Discover Reachable PL Sets and decisions with the paper's §V-B3/B4
     * procedure (dominates/exclusive pruning of the power set followed by
     * per-candidate covers) instead of the default witness-driven all-SAT
     * enumeration. Both are sound and bound-complete; the paper's
     * procedure issues O(|PLs|^2 + |candidates|) properties because a
     * black-box commercial verifier cannot enumerate witnesses
     * incrementally, while the all-SAT path issues O(|results|). The
     * ablation bench compares the two (DESIGN.md §4).
     */
    bool usePaperEnumeration = false;
    /**
     * Worker threads for the per-IUV simulation explorations.
     * 0 = hardware_concurrency(). Cover queries run on the engine pool's
     * one engine in submission order, so verdicts and synthesized
     * results are identical for every value (DESIGN.md §3d).
     */
    unsigned jobs = 0;
    /** Audit Reachable verdicts by simulator witness replay
     *  (bmc::EngineConfig::auditReplay). */
    bool auditReplay = false;
    /** Audit Unreachable verdicts against the solver's DRAT trace
     *  (bmc::EngineConfig::auditProof). */
    bool auditProof = false;
    /** Persistent verdict store (not owned; see exec::ExecConfig::store).
     *  Synthesized μPATHs are store-invariant: hits replay the identical
     *  verdicts the solver produced when the records were written. */
    store::VerdictStore *store = nullptr;
};

/** Statistics for one pipeline step (drives bench_perf_properties). */
struct StepStats
{
    std::string step;
    uint64_t queries = 0;
    uint64_t reachable = 0;
    uint64_t unreachable = 0;
    uint64_t undetermined = 0;
    double seconds = 0.0;
};

/** Pairwise pruning facts for one IUV (§V-B3). */
struct PruneFacts
{
    /** iuvPls[i] indexes into the harness PL universe. */
    std::vector<uhb::PlId> iuvPls;
    /** dom[i][j]: every execution visiting iuvPls[j] also visits [i]. */
    std::vector<std::vector<bool>> dom;
    /** excl[i][j]: no execution visits both. */
    std::vector<std::vector<bool>> excl;
    /** mandatory[i]: every completed execution visits iuvPls[i]. */
    std::vector<bool> mandatory;
};

/**
 * The synthesizer. One instance per harnessed DUV; step-1 results and the
 * BMC unrolling are shared across all IUVs.
 */
class MuPathSynthesizer
{
  public:
    MuPathSynthesizer(const designs::Harness &harness,
                      const SynthesisConfig &config = {});

    /** Step 1: PLs reachable by any instruction on the DUV. */
    const std::vector<uhb::PlId> &duvPls();

    /** Steps 2-8 for one instruction; returns its μPATHs and decisions. */
    uhb::InstrPaths synthesize(uhb::InstrId iuv);

    /**
     * Synthesize several instructions: simulation exploration runs
     * concurrently for all IUVs, then step 1 and synthesize() per IUV in
     * the given order. Results are deterministic and jobs-invariant, and
     * equal calling synthesize() per IUV in order.
     */
    std::map<uhb::InstrId, uhb::InstrPaths>
    synthesizeAll(const std::vector<uhb::InstrId> &iuvs);

    /** Step 2 only (used by modular flows). */
    std::vector<uhb::PlId> iuvPls(uhb::InstrId iuv);

    /** Step 3 only. */
    PruneFacts pruneFacts(uhb::InstrId iuv,
                          const std::vector<uhb::PlId> &iuv_pls);

    /** Candidate-set enumeration given pruning facts (pure, no solver). */
    std::vector<std::vector<uhb::PlId>>
    enumerateCandidateSets(const PruneFacts &facts) const;

    /** Per-step statistics accumulated so far. */
    const std::vector<StepStats> &stepStats() const { return stats_; }

    /** Simulation-exploration facts for @p iuv (cached; empty when the
     *  semi-formal mode is disabled). */
    const SimFacts &facts(uhb::InstrId iuv);

    /** Underlying engine pool (aggregate SAT/cache statistics). */
    const exec::EnginePool &pool() const { return pool_; }

    const designs::Harness &harness() const { return hx; }

  private:
    /** Build a pool query: seq under @p assumes plus the base assumes. */
    exec::Query mkQuery(const prop::ExprRef &seq,
                        std::vector<prop::ExprRef> assumes) const;

    /** Evaluate a cover, tally into the stats bucket for @p step. */
    bmc::CoverResult query(size_t step, const prop::ExprRef &seq,
                           std::vector<prop::ExprRef> assumes);

    /**
     * Evaluate a batch of *independent* covers through the pool; results
     * (and the per-step tallies, applied in submission order) are
     * identical to issuing the queries sequentially.
     */
    std::vector<bmc::CoverResult> queryBatch(size_t step,
                                             std::vector<exec::Query> qs);
    prop::ExprRef exprVisitedExactly(
        const std::vector<uhb::PlId> &iuv_pls,
        const std::vector<uhb::PlId> &set) const;

    uhb::UPath buildPath(uhb::InstrId iuv,
                         const std::vector<uhb::PlId> &set,
                         const bmc::Witness &witness);

    /** Reachable PL Sets via the paper's §V-B3/B4 prune-and-cover. */
    std::vector<std::pair<std::vector<uhb::PlId>, bmc::Witness>>
    reachableSetsPaper(uhb::InstrId iuv,
                       const std::vector<uhb::PlId> &iuv_pls);

    /** Reachable PL Sets via witness-driven all-SAT enumeration. */
    std::vector<std::pair<std::vector<uhb::PlId>, bmc::Witness>>
    reachableSetsAllSat(uhb::InstrId iuv,
                        const std::vector<uhb::PlId> &iuv_pls);

    void synthesizeDecisions(uhb::InstrId iuv,
                             const std::vector<uhb::PlId> &iuv_pls,
                             uhb::InstrPaths &out);

    const designs::Harness &hx;
    SynthesisConfig cfg;
    exec::EnginePool pool_;
    std::vector<prop::ExprRef> base;
    std::vector<uhb::PlId> duvPls_;
    bool duvPlsDone = false;
    std::map<uhb::InstrId, SimFacts> factsCache;
    std::vector<StepStats> stats_;
};

} // namespace rmp::r2m

#endif // RTL2MUPATH_SYNTH_HH
