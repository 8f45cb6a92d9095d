#include "sim/batch.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/simd.hh"

namespace rmp::sim
{

BatchSim::BatchSim(const Tape &tape, unsigned lanes) : tp(tape)
{
    rmp_assert(lanes >= 1 && lanes <= kMaxLanes,
               "lane count %u outside [1, %u]", lanes, kMaxLanes);
    lanes_ = lanes;
    P_ = 1;
    while (P_ < lanes)
        P_ <<= 1;
    valsStore_.resize(size_t(tp.numSlots) * P_ + 7);
    vals_ = reinterpret_cast<uint64_t *>(
        (reinterpret_cast<uintptr_t>(valsStore_.data()) + 63) &
        ~uintptr_t(63));
    in_.resize(tp.inputs.size() * P_);
    scratch_.resize(tp.latches.size() * P_);
    reset();
}

void
BatchSim::reset()
{
    for (uint32_t s = 0; s < tp.numSlots; s++)
        for (unsigned l = 0; l < P_; l++)
            vals_[size_t(s) * P_ + l] = tp.init[s];
    std::fill(in_.begin(), in_.end(), 0);
    frames_.clear();
    cycles_ = 0;
}

void
BatchSim::clearInputs()
{
    std::fill(in_.begin(), in_.end(), 0);
}

bool
BatchSim::stageInput(unsigned lane, SigId sig, uint64_t v)
{
    uint32_t ord = tp.inputOrdinal[sig];
    if (ord == kNoInput)
        return false;
    setInput(lane, ord, v);
    return true;
}

void
BatchSim::stageInputs(unsigned lane, const InputMap &in)
{
    for (const auto &[sig, v] : in)
        stageInput(lane, sig, v);
}

void
BatchSim::reserveTrace(size_t cycles)
{
    frames_.reserve(cycles * tp.watchSlots.size() * P_);
}

template <unsigned P>
void
BatchSim::latch()
{
    // Two-phase: every next-state value is read into the scratch buffer
    // before any register slot is overwritten, so Reg->Reg forwarding
    // (a register whose next-state is another register) sees the old
    // values, exactly like the interpreted Simulator.
    uint64_t *v = vals_;
    uint64_t *s = scratch_.data();
    const Tape::Latch *lt = tp.latches.data();
    const size_t nl = tp.latches.size();
    for (size_t j = 0; j < nl; j++) {
        const uint64_t *src = v + size_t(lt[j].next) * P;
        for (unsigned l = 0; l < P; l++)
            s[j * P + l] = src[l];
    }
    for (size_t j = 0; j < nl; j++) {
        uint64_t *dst = v + size_t(lt[j].reg) * P;
        for (unsigned l = 0; l < P; l++)
            dst[l] = s[j * P + l];
    }
}

void
BatchSim::step()
{
    // Scatter staged inputs into their slots, masked to input width
    // (unstaged inputs default to zero via clearInputs / initial state).
    uint64_t *v = vals_;
    for (size_t j = 0; j < tp.inputs.size(); j++) {
        const uint64_t m = tp.inputs[j].mask;
        uint64_t *dst = v + size_t(tp.inputs[j].slot) * P_;
        const uint64_t *src = in_.data() + j * P_;
        for (unsigned l = 0; l < P_; l++)
            dst[l] = src[l] & m;
    }

    simdEvalOps(tp, vals_, P_);

    // Record watched values pre-latch: this is the cycle's frame.
    if (recording_) {
        const size_t nw = tp.watchSlots.size();
        size_t base = frames_.size();
        frames_.resize(base + nw * P_);
        for (size_t k = 0; k < nw; k++) {
            const uint64_t *src = v + size_t(tp.watchSlots[k]) * P_;
            for (unsigned l = 0; l < P_; l++)
                frames_[base + k * P_ + l] = src[l];
        }
    }

    switch (P_) {
      case 1: latch<1>(); break;
      case 2: latch<2>(); break;
      case 4: latch<4>(); break;
      case 8: latch<8>(); break;
      case 16: latch<16>(); break;
      default: rmp_panic("unsupported physical lane count %u", P_);
    }
    cycles_++;
}

} // namespace rmp::sim
