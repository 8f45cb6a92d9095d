/**
 * @file
 * BatchSim: the compiled, multi-lane execution engine for op tapes
 * (DESIGN.md §3h).
 *
 * Values live in one contiguous SoA array, vals[slot * P + lane], where P
 * is the physical lane count — the requested lane count rounded up to a
 * power of two. step() runs one kernel (sim/simd.hh): each same-opcode
 * run of the tape is one loop over a slot's P lanes, in AVX2 registers
 * when the CPU has them and P >= 4, in the portable VPort<P> otherwise.
 * Lanes are fully independent simulations stepped in lockstep; unused
 * (padding) lanes run the all-zero-input program and are never observed.
 *
 * Inputs are staged into a dense per-ordinal array (no hash map on the
 * hot path; stageInputs() is the map-based shim for oracle/test call
 * sites). Only watched signals are recorded, pre-latch, exactly like the
 * interpreted Simulator's frames: watched(t, k, lane) equals what
 * Simulator::trace() would show for watch signal k at cycle t.
 *
 * value(lane, sig) reads the raw slot after step(): correct for
 * combinational signals; register slots have already latched their
 * next-cycle state, so per-cycle register observation must go through
 * the recorded watch frames.
 */

#ifndef SIM_BATCH_HH
#define SIM_BATCH_HH

#include <cstdint>
#include <vector>

#include "sim/simulator.hh"
#include "sim/tape.hh"

namespace rmp::sim
{

/** Largest supported physical lane width. */
inline constexpr unsigned kMaxLanes = 16;

/** Default exploration lane count (one AVX2 register of 64-bit lanes
 *  per four ops' worth of loop unrolling; measured sweet spot). */
inline constexpr unsigned kDefaultLanes = 8;

class BatchSim
{
  public:
    /** @p lanes in [1, kMaxLanes]; rounded up to a power of two. */
    BatchSim(const Tape &tape, unsigned lanes);

    /** Back to the reset state; clears the recorded frames. */
    void reset();

    /** Requested (observable) lane count. */
    unsigned lanes() const { return lanes_; }
    /** Physical (padded power-of-two) lane count. */
    unsigned physLanes() const { return P_; }

    /** @name Per-cycle input staging */
    /// @{
    /** Zero every staged input (all lanes). */
    void clearInputs();
    /** Stage input @p ordinal (dense, Tape::inputOrdinal) on @p lane. */
    void
    setInput(unsigned lane, uint32_t ordinal, uint64_t v)
    {
        in_[size_t(ordinal) * P_ + lane] = v;
    }
    /**
     * Map-based shim: stage by SigId, masking to the input's width.
     * Returns false (and stages nothing) for pruned inputs — their
     * values cannot reach a register or watched signal.
     */
    bool stageInput(unsigned lane, SigId sig, uint64_t v);
    /** Stage a whole InputMap (oracle/test convenience). */
    void stageInputs(unsigned lane, const InputMap &in);
    /// @}

    /** Simulate one cycle on every lane with the staged inputs. */
    void step();

    /** Cycles executed since reset(). */
    size_t cycle() const { return cycles_; }

    /** Raw slot value after step() (see file comment for the register
     *  caveat). @p sig must not be pruned. */
    uint64_t
    value(unsigned lane, SigId sig) const
    {
        return vals_[size_t(tp.slotOf[sig]) * P_ + lane];
    }

    /** @name Watch-set trace */
    /// @{
    void setRecording(bool on) { recording_ = on; }
    void reserveTrace(size_t cycles);
    /** Watched signal @p k's value at cycle @p t on @p lane (pre-latch,
     *  == the interpreted Simulator's frame value). */
    uint64_t
    watched(size_t t, size_t k, unsigned lane) const
    {
        return frames_[(t * tp.watchSlots.size() + k) * P_ + lane];
    }
    /// @}

    const Tape &tape() const { return tp; }

  private:
    template <unsigned P> void latch();

    const Tape &tp;
    unsigned lanes_ = 1;
    unsigned P_ = 1;
    /** Backing store for vals_, over-allocated so the aligned pointer
     *  always has numSlots * P valid elements behind it. */
    std::vector<uint64_t> valsStore_;
    /** numSlots * P values, 64-byte aligned: at P = 8 each slot's lane
     *  row is exactly one cache line, and std::vector's weaker default
     *  alignment would otherwise split every row across two lines. */
    uint64_t *vals_ = nullptr;
    std::vector<uint64_t> in_;      ///< numInputs * P, staged
    std::vector<uint64_t> scratch_; ///< latches * P (two-phase latch)
    std::vector<uint64_t> frames_;  ///< cycles * watchSlots * P
    size_t cycles_ = 0;
    bool recording_ = true;
};

} // namespace rmp::sim

#endif // SIM_BATCH_HH
