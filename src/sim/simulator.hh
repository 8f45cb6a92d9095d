/**
 * @file
 * Two-state cycle-accurate simulator for the netlist IR.
 *
 * The simulator serves three roles in the reproduction:
 *  - functional oracle for the DUVs (tests run programs and check
 *    architectural results),
 *  - independent witness validator: every Reachable verdict from the BMC
 *    engine is replayed here before being trusted (DESIGN.md §5), and
 *    every BMC witness trace — solved, cached or stored — comes from
 *    this replay,
 *  - observation-trace generator for the SC-Safe experiment (Def. V.1).
 */

#ifndef SIM_SIMULATOR_HH
#define SIM_SIMULATOR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "rtlir/design.hh"

namespace rmp
{

/** Input valuations for one cycle: SigId of an Input cell -> value. */
using InputMap = std::unordered_map<SigId, uint64_t>;

/** A simulated execution trace: per cycle, the value of every signal. */
struct SimTrace
{
    /** frames[t][sig] = value of sig during cycle t (masked to width). */
    std::vector<std::vector<uint64_t>> frames;

    size_t numCycles() const { return frames.size(); }
    uint64_t value(size_t cycle, SigId sig) const
    {
#if !defined(NDEBUG)
        rmp_assert(cycle < frames.size(),
                   "trace cycle %zu out of range (%zu cycles)", cycle,
                   frames.size());
        rmp_assert(sig < frames[cycle].size(),
                   "trace signal %u out of range (%zu signals)", sig,
                   frames[cycle].size());
#endif
        return frames[cycle][sig];
    }
    /** Pre-reserve frame storage for @p cycles cycles. */
    void reserveCycles(size_t cycles) { frames.reserve(cycles); }
};

/**
 * Cycle-accurate evaluator.
 *
 * reset() puts every register at its reset value (the paper's valid reset
 * state). Each step() evaluates combinational logic given that cycle's
 * inputs, records the frame, and latches registers. Unspecified inputs
 * default to zero.
 */
class Simulator
{
  public:
    explicit Simulator(const Design &design);

    /** Return to the valid reset state and clear the trace. */
    void reset();

    /** Simulate one cycle with the given input valuation. */
    void step(const InputMap &inputs = {});

    /** Value of @p sig as computed in the most recent step. */
    uint64_t value(SigId sig) const;

    /** Current (post-step) register value. */
    uint64_t regValue(SigId reg) const;

    /** Cycles executed since reset. */
    size_t cycle() const { return trace_.numCycles(); }

    /** Full recorded trace. */
    const SimTrace &trace() const { return trace_; }

    /** Enable/disable trace recording (on by default). */
    void setRecording(bool on) { recording = on; }

    /** Pre-reserve trace storage for @p cycles cycles (allocation-churn
     *  fix: hot callers that know their horizon reserve up front). */
    void reserveTrace(size_t cycles) { trace_.reserveCycles(cycles); }

  private:
    const Design &d;
    /** Current register values (indexed by SigId). */
    std::vector<uint64_t> regs;
    /** Last evaluated frame (all signals). */
    std::vector<uint64_t> vals;
    SimTrace trace_;
    bool recording = true;
    bool stepped = false;
};

} // namespace rmp

#endif // SIM_SIMULATOR_HH
