/**
 * @file
 * Simulation-guided exploration: the semi-formal front half of the
 * synthesis pipeline.
 *
 * Randomized constrained simulation discovers reachable facts — IUV PL
 * visits, exact Reachable PL Sets with concrete schedules, revisit
 * behavior and counts, HB-edge observations, and decision successor
 * patterns — each backed by a concrete trace, i.e. with the same
 * Reachable-with-witness status a SAT witness would have. The BMC engine
 * is then only needed for the closure queries ("nothing else is
 * reachable") and for facts random simulation missed, which is where the
 * paper's undetermined-timeout regime applies (§VII-B3/B4).
 *
 * Exploration runs on the compiled batched engine (sim::BatchSim) by
 * default: runs are seeded per (seed, iuv, run index), stepped in
 * multi-lane lockstep batches fanned out over the process's worker pool
 * (exec::parallelFor) at the caller's width, and only the harness watch
 * set (PL trackers, iuvGone, fetchReady, edge observers) is recorded.
 * Per-run results are merged into facts serially in run order, so the
 * produced SimFacts are bit-identical across engines and across any
 * lane count or width (DESIGN.md §3h). The interpreted engine remains
 * available as the reference oracle (SimEngine::Interpreted).
 */

#ifndef RTL2MUPATH_SIM_EXPLORE_HH
#define RTL2MUPATH_SIM_EXPLORE_HH

#include <functional>
#include <random>
#include <map>
#include <set>
#include <vector>

#include "bmc/engine.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "designs/harness.hh"
#include "uhb/graph.hh"

namespace rmp::r2m
{

/** Which simulation engine drives the exploration runs. */
enum class SimEngine : uint8_t {
    Compiled,    ///< op-tape BatchSim, multi-lane, fanned out
    Interpreted, ///< scalar reference Simulator (the oracle)
};

/** Randomized-exploration configuration. */
struct SimExploreConfig
{
    /** Number of random programs to simulate per instruction. */
    unsigned runs = 1200;
    /** PRNG seed (deterministic exploration). */
    uint64_t seed = 1;
    /** Probability of offering an instruction on a given cycle. */
    double fetchProb = 0.85;
    /** Latest cycle index at which the IUV may be marked. */
    unsigned maxMarkPos = 6;
    /**
     * Probability that a symbolic-init input is biased to a "special"
     * value (0 or a small constant) — needed to hit value-sensitive
     * channels such as zero-skip multiplication.
     */
    double specialInitProb = 0.4;
    /** Engine choice. Facts are engine-identical by construction. */
    SimEngine engine = SimEngine::Compiled;
    /**
     * Batch lanes for the compiled engine (clamped to
     * [1, sim::kMaxLanes]). Results are lane-count invariant.
     */
    unsigned lanes = sim::kDefaultLanes;
    /** Ignored: exploreSim() takes its width as an argument. Its only
     *  writer is `c.explore.threads = kSimThreads;` in the benchmark
     *  harness (rmpbench/src/oneshot.cc); delete it with that line. */
    unsigned threads = 4;
};

/** Everything one exact Reachable PL Set's runs established. */
struct SimSetFact
{
    std::vector<uhb::PlId> set;
    /** One representative witness (inputs + replayable watch trace). */
    bmc::Witness witness;
    /** PLs observed revisited consecutively / non-consecutively. */
    std::set<uhb::PlId> consec, nonconsec;
    /** Observed visit counts per PL. */
    std::map<uhb::PlId, std::set<unsigned>> counts;
    /** Observed one-cycle-successor (HB edge) pairs. */
    std::set<std::pair<uhb::PlId, uhb::PlId>> edges;
};

/** Aggregated facts from one exploration batch. */
struct SimFacts
{
    /** PLs the IUV was observed to visit. */
    std::set<uhb::PlId> iuvPls;
    /** Exact visited sets, keyed by the sorted set. */
    std::map<std::vector<uhb::PlId>, SimSetFact> sets;
    /** Observed successor patterns per decision source. */
    std::map<uhb::PlId, std::set<std::vector<uhb::PlId>>> succ;
};

/** Deep equality over facts, witnesses included. Used by the engine
 *  differential tests and bench_sim_throughput's identity verdict. */
bool factsEqual(const SimFacts &x, const SimFacts &y);

/**
 * Explore @p iuv's behavior with random constrained simulation. The
 * compiled engine's batches fan out at @p width (see exec::parallelFor;
 * 0 = hardware concurrency); the facts are the same at every width.
 */
SimFacts exploreSim(const designs::Harness &hx, uhb::InstrId iuv,
                    const SimExploreConfig &cfg, unsigned width);

/** One random constrained run: replayable inputs plus the full trace. */
struct SimRun
{
    std::vector<InputMap> inputs;
    SimTrace trace;
};

/**
 * Simulate one random valid run of @p cycles cycles on @p design (the
 * harnessed DUV or its IFT-instrumented clone — original SigIds are
 * preserved by instrumentation). The @p mark_pos-th fetched instruction
 * is the IUV (forced opcode, IUV-marked); when @p txm >= 0 the
 * @p txm_pos-th fetched instruction is forced to that opcode and
 * transmitter-marked (equal positions mark one instruction as both).
 * @p extra may inject additional per-cycle inputs (taint introduction,
 * sticky mode) with access to the pre-step simulator state.
 *
 * Always runs on the interpreted Simulator: SynthLC's leakage probes
 * need pre-step register access in @p extra, and the RNG draw order here
 * is part of the determinism contract its tests pin down.
 */
SimRun randomConstrainedRun(
    const designs::Harness &hx, const Design &design, unsigned cycles,
    uhb::InstrId iuv, unsigned mark_pos, int txm, unsigned txm_pos,
    const SimExploreConfig &cfg, std::mt19937_64 &rng,
    const std::function<void(unsigned, Simulator &, InputMap &)> &extra =
        {});

} // namespace rmp::r2m

#endif // RTL2MUPATH_SIM_EXPLORE_HH
