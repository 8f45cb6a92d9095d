/**
 * @file
 * SynthLC: synthesizing formally verified leakage signatures (§IV-D, §V-C).
 *
 * Given the decisions RTL2MμPATH uncovered for a candidate transponder,
 * SynthLC runs a symbolic information-flow analysis on the IFT-instrumented
 * DUV: for every (decision, transmitter, operand, assumption) combination
 * it evaluates the paper's decision_taint cover — taint is introduced at
 * the transmitter's operand register while the transmitter occupies the
 * issue stage, and the cover looks for an execution where the transponder
 * exhibits the decision with tainted destination μFSMs.
 *
 * The four assumption schemes of Fig. 7 classify transmitters as
 * intrinsic (1), older dynamic (2a), younger dynamic (2b), or static (3);
 * the static scheme uses the sticky-taint flush plane (ift).
 *
 * A leakage signature is constructed for decision source src when at
 * least two of the transponder's decisions at src are transmitter
 * operand-dependent (footnote 3).
 */

#ifndef SYNTHLC_SYNTHLC_HH
#define SYNTHLC_SYNTHLC_HH

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bmc/engine.hh"
#include "designs/harness.hh"
#include "exec/engine_pool.hh"
#include "ift/instrument.hh"
#include "uhb/graph.hh"

namespace rmp::sim
{
/** Leftover of the removed simulation-backend choice, kept only for
 *  `c.simBackend = sim::SimBackend::Simd;` in the benchmark harness
 *  (rmpbench/src/oneshot.cc); delete it with that line. */
enum class SimBackend : uint8_t { Simd };
} // namespace rmp::sim

namespace rmp::slc
{

/** Transmitter typing (§IV-C). */
enum class TxType : uint8_t
{
    Intrinsic,      ///< the transponder itself (Assumption 1)
    DynamicOlder,   ///< older in-flight instruction (Assumption 2a)
    DynamicYounger, ///< younger in-flight instruction (Assumption 2b);
                    ///< flags susceptibility to speculative interference
    Static,         ///< completed before the transponder (Assumption 3)
};

const char *txTypeName(TxType t);

/** Transmitter operand under test. */
enum class Operand : uint8_t { Rs1, Rs2 };

const char *operandName(Operand o);

/** One typed explicit input to a leakage function. */
struct TransmitterInput
{
    uhb::InstrId instr = 0;
    Operand op = Operand::Rs1;
    TxType type = TxType::Intrinsic;

    bool
    operator<(const TransmitterInput &o) const
    {
        return std::tie(instr, op, type) < std::tie(o.instr, o.op, o.type);
    }
    bool
    operator==(const TransmitterInput &o) const
    {
        return instr == o.instr && op == o.op && type == o.type;
    }
};

/** A decision plus the transmitter inputs it was proven to depend on. */
struct TaggedDecision
{
    uhb::Decision decision;
    std::vector<TransmitterInput> tags;
};

/**
 * A leakage signature (§IV-D): the function name (transponder + decision
 * source), typed transmitters (explicit inputs) with their unsafe
 * operands, decision destinations (the output range), and the implicit
 * inputs (microarchitectural structures read by the path selector).
 */
struct LeakageSignature
{
    uhb::InstrId transponder = 0;
    uhb::PlId src = uhb::kNoPl;
    /** All decisions at src (the output range), with per-decision tags. */
    std::vector<TaggedDecision> decisions;
    /** Union of tags: the typed explicit inputs. */
    std::vector<TransmitterInput> inputs;
    /** Names of microarchitectural structures read by the selector. */
    std::vector<std::string> implicitInputs;

    /** Number of distinct decision destinations (output range size). */
    size_t outputRange() const { return decisions.size(); }
};

/** Configuration. */
struct SynthLcConfig
{
    /** Per-query SAT budget; an Undetermined probe counts as no
     *  dependency, like an unreachable one (§VII-B3/B4). */
    sat::SatBudget budget{};
    /** Assumption schemes to evaluate (all four by default). */
    bool testIntrinsic = true;
    bool testDynamicOlder = true;
    bool testDynamicYounger = true;
    bool testStatic = true;
    /**
     * Randomized taint-simulation runs per (transmitter, operand,
     * assumption) batch. Each run executes the IFT-instrumented design
     * with the batch's mark placement, taint introduction, and sticky
     * mode; a run whose trace satisfies every assume of the corresponding
     * decision_taint query and matches its cover is a sound Reachable
     * verdict with a concrete witness, so only the misses go to the BMC
     * engine (semi-formal mode, as in rtl2mupath/sim_explore.hh).
     * 0 disables simulation pre-filtering.
     */
    unsigned simRuns = 160;
    uint64_t simSeed = 7;
    /** Ignored: the simulation kernel is not selectable. Its only user
     *  is `c.simBackend = sim::SimBackend::Simd;` in the benchmark
     *  harness (rmpbench/src/oneshot.cc); delete it with that line. */
    sim::SimBackend simBackend = sim::SimBackend::Simd;
    /**
     * Worker threads for the taint-simulation batches.
     * 0 = hardware_concurrency(). Probes run on the engine pool's one
     * engine in submission order, so results are identical for every
     * value (DESIGN.md §3d).
     */
    unsigned jobs = 0;
    /** Audit Reachable verdicts by simulator witness replay
     *  (bmc::EngineConfig::auditReplay). */
    bool auditReplay = false;
    /** Audit Unreachable verdicts against the solver's DRAT trace
     *  (bmc::EngineConfig::auditProof). */
    bool auditProof = false;
    /** Persistent verdict store (not owned; see exec::ExecConfig::store). */
    store::VerdictStore *store = nullptr;
};

/** Aggregate statistics for §VII-B3 reporting. */
struct SynthLcStats
{
    uint64_t queries = 0;      ///< BMC decision_taint covers evaluated
    uint64_t reachable = 0;
    uint64_t unreachable = 0;
    uint64_t undetermined = 0;
    uint64_t simHits = 0;      ///< covers discharged by taint simulation
    double seconds = 0.0;
};

/** The analysis driver; one instance per harnessed DUV. */
class SynthLc
{
  public:
    SynthLc(const designs::Harness &harness,
            const SynthLcConfig &config = {});

    /**
     * Analyze one candidate transponder: evaluate decision_taint covers
     * for each decision against each candidate transmitter/operand under
     * the enabled assumption schemes, and assemble leakage signatures.
     */
    std::vector<LeakageSignature>
    analyze(uhb::InstrId transponder,
            const std::vector<uhb::Decision> &decisions,
            const std::vector<uhb::InstrId> &transmitters);

    const SynthLcStats &stats() const { return stats_; }
    /** Underlying engine pool (aggregate SAT/cache statistics). */
    const exec::EnginePool &pool() const { return pool_; }
    const designs::Harness &harness() const { return hx; }
    const ift::Instrumented &instrumented() const { return inst; }

    /** Render a leakage signature in the style of Fig. 5. */
    std::string render(const LeakageSignature &sig) const;

  private:
    /** The decision_taint cover sequence (shared by sim and BMC). */
    prop::ExprRef coverExpr(const uhb::Decision &d,
                            const std::vector<uhb::PlId> &succ_universe)
        const;
    /** The full assume set for one query (shared by sim and BMC). */
    std::vector<prop::ExprRef> queryAssumes(uhb::InstrId transponder,
                                            uhb::InstrId transmitter,
                                            Operand op, TxType type,
                                            uhb::PlId src) const;

    /**
     * Run one batch of randomized taint simulations for (transmitter,
     * op, type) and record which decisions' covers were matched by a
     * trace that satisfies all of that query's assumes. Pure with
     * respect to *this (statistics are tallied by the caller), so
     * independent batches may run concurrently.
     */
    void simBatch(uhb::InstrId transponder, uhb::InstrId transmitter,
                  Operand op, TxType type,
                  const std::map<uhb::PlId, std::vector<uhb::Decision>>
                      &by_src,
                  const std::map<uhb::PlId, std::vector<uhb::PlId>>
                      &universe,
                  std::set<std::pair<uhb::PlId, uhb::Decision>> *hits)
        const;

    std::vector<std::string> implicitInputsOf(const uhb::Decision &d) const;

    prop::ExprRef taintIntro(Operand op) const;
    prop::ExprRef assumptionExpr(TxType type, uhb::PlId src) const;

    const designs::Harness &hx;
    SynthLcConfig cfg;
    ift::Instrumented inst;
    /**
     * Per-μFSM "any state/pcr shadow bit set" wires. Built before the
     * pool so its unrolling of the design covers them.
     */
    std::vector<SigId> fsmTaint;
    exec::EnginePool pool_;
    std::vector<prop::ExprRef> base;
    SynthLcStats stats_;
};

} // namespace rmp::slc

#endif // SYNTHLC_SYNTHLC_HH
