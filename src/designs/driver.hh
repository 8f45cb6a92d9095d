/**
 * @file
 * Program driver: runs concrete instruction sequences on a harnessed DUV
 * through the simulator. Used by functional tests, examples, and the
 * SC-Safe observation-trace experiment (Def. V.1).
 *
 * Two engines are available. The interpreted engine (default) records a
 * full trace of every signal — the reference oracle. The compiled engine
 * steps an op tape (sim::BatchSim) and records only the observation
 * watch set — fetchReady, per-PL occupancy, and the architectural
 * register file — returning a sparse trace that arfValue() and
 * observationTrace() read identically.
 */

#ifndef DESIGNS_DRIVER_HH
#define DESIGNS_DRIVER_HH

#include <memory>
#include <vector>

#include "designs/harness.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "sim/tape.hh"

namespace rmp::designs
{

/** One program instruction: the encoded word plus optional marks. */
struct ProgInstr
{
    uint64_t word = 0;
    bool markIuv = false;
    bool markTxm = false;
    /** Idle cycles to insert before offering this instruction. */
    unsigned delayBefore = 0;
};

/**
 * Feeds a program into the harnessed DUV cycle by cycle, respecting
 * fetch back-pressure, and returns the recorded trace.
 */
class ProgramDriver
{
  public:
    /** @p compiled selects the op-tape engine (watch-set traces). */
    explicit ProgramDriver(const Harness &harness, bool compiled = false);

    /**
     * Run @p prog, then keep simulating idle cycles until @p total_cycles
     * have elapsed. @p init is merged into the first cycle's inputs
     * (symbolic architectural init, e.g. a secret register seed).
     * Returns the recorded trace: every signal on the interpreted
     * engine, the observation watch set on the compiled engine.
     */
    SimTrace run(const std::vector<ProgInstr> &prog, unsigned total_cycles,
                 const InputMap &init = {});

    /**
     * The architectural value of ARF word @p reg at the end of @p trace.
     */
    uint64_t arfValue(const SimTrace &trace, unsigned reg) const;

    /**
     * The R_μPATH observation trace (§V-C2): per cycle, the bitset of
     * occupied PLs — what a receiver observing instruction/PL occupancy
     * perceives.
     */
    std::vector<uint64_t> observationTrace(const SimTrace &trace) const;

  private:
    const Harness &hx;
    /** Observation-watch tape (compiled engine only, built once). */
    std::unique_ptr<sim::Tape> tape_;
};

} // namespace rmp::designs

#endif // DESIGNS_DRIVER_HH
