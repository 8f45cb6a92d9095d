/**
 * @file
 * Program driver: runs concrete instruction sequences on a harnessed DUV
 * through the interpreted simulator, recording a full trace of every
 * signal. Used by functional tests, examples, and the SC-Safe
 * observation-trace experiment (Def. V.1).
 */

#ifndef DESIGNS_DRIVER_HH
#define DESIGNS_DRIVER_HH

#include <vector>

#include "designs/harness.hh"
#include "sim/simulator.hh"

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
    explicit ProgramDriver(const Harness &harness) : hx(harness) {}

    /**
     * Run @p prog, then keep simulating idle cycles until @p total_cycles
     * have elapsed. @p init is merged into the first cycle's inputs
     * (symbolic architectural init, e.g. a secret register seed).
     * Returns the recorded trace of every signal.
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
};

} // namespace rmp::designs

#endif // DESIGNS_DRIVER_HH
