/**
 * @file
 * Differential tests for the tape kernel and its CPU dispatch
 * (DESIGN.md §3h, "Kernel and CPU dispatch").
 *
 * The kernel manipulates masked 64-bit lanes, so the widths where mask
 * handling can silently go wrong are 1 (everything collapses to one
 * bit), 63 (the widest non-trivial mask, (1<<63)-1), and 64 (mask = ~0,
 * where an unmasked shift≥width or carry out of bit 63 must wrap
 * exactly). A width-65 case is impossible by construction: the IR caps
 * every signal at 64 bits (Design::addBinary asserts concat ≤ 64), so
 * the 64-bit lane is the worst case, not a sample. Each width gets a toy
 * design covering every tape opcode — including shift counts ≥ 64,
 * which must yield 0 — replayed against the interpreted oracle at every
 * lane width, both through BatchSim's dispatch (AVX2 where the CPU has
 * it) and through the portable VPort<P> kernel called directly, so an
 * AVX2 host still checks the portable path at every width.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "designs/harness.hh"
#include "designs/tiny3.hh"
#include "sim/batch.hh"
#include "sim/simd.hh"
#include "sim/simd_kernels.hh"
#include "sim/simulator.hh"
#include "sim/tape.hh"

using namespace rmp;

namespace
{

/**
 * A toy design at bit width @p w exercising every tape opcode: the
 * boundary-mask torture chamber. The shift-count input is 7 bits wide
 * so counts ≥ 64 occur and must produce 0, and a register closes the
 * sequential loop so the two-phase latch path runs too.
 */
Design
buildBoundary(unsigned w)
{
    Design d("boundary" + std::to_string(w));
    SigId a = d.addInput("a", w);
    SigId b = d.addInput("b", w);
    SigId s = d.addInput("s", 7); // counts 0..127: ≥64 must yield 0
    SigId sel = d.addInput("sel", 1);

    std::vector<SigId> outs;
    outs.push_back(d.addUnary(Op::Not, a, w));
    outs.push_back(d.addBinary(Op::And, a, b));
    outs.push_back(d.addBinary(Op::Or, a, b));
    outs.push_back(d.addBinary(Op::Xor, a, b));
    outs.push_back(d.addUnary(Op::RedOr, a, 1));
    outs.push_back(d.addUnary(Op::RedAnd, a, 1));
    outs.push_back(d.addBinary(Op::Eq, a, b));
    outs.push_back(d.addBinary(Op::Ult, a, b));
    outs.push_back(d.addBinary(Op::Add, a, b));
    outs.push_back(d.addBinary(Op::Sub, a, b));
    outs.push_back(d.addBinary(Op::Mul, a, b));
    outs.push_back(d.addBinary(Op::Shl, a, s));
    outs.push_back(d.addBinary(Op::Shr, b, s));
    outs.push_back(d.addMux(sel, a, b));
    if (w > 1) {
        unsigned half = w / 2;
        SigId lo = d.addUnary(Op::Slice, a, half, 0);
        SigId hi = d.addUnary(Op::Slice, a, w - half, half);
        outs.push_back(lo);
        outs.push_back(hi);
        outs.push_back(d.addBinary(Op::Concat, hi, lo));
    }
    if (w < 64)
        outs.push_back(d.addUnary(Op::Zext, a, w + 1));

    // Fold every result into one w-bit accumulator through a register.
    SigId acc = d.addBinary(Op::Xor, a, b);
    for (SigId o : outs) {
        SigId z = d.cell(o).width == w ? o
                                       : d.addUnary(Op::Zext, o, 64);
        if (d.cell(z).width != w)
            z = d.addUnary(Op::Slice, z, w, 0);
        acc = d.addBinary(Op::Xor, acc, z);
    }
    SigId r = d.addReg("r", BitVec(w, 0));
    d.connectRegNext(r, d.addBinary(Op::Xor, acc, r));
    return d;
}

std::vector<SigId>
watchAll(const Design &d)
{
    std::vector<SigId> w(d.numCells());
    for (SigId i = 0; i < d.numCells(); i++)
        w[i] = i;
    return w;
}

std::vector<InputMap>
randomProgram(const Design &d, unsigned cycles, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<InputMap> prog(cycles);
    for (unsigned t = 0; t < cycles; t++)
        for (SigId in : d.inputs())
            prog[t][in] = rng() & BitVec::maskOf(d.width(in));
    return prog;
}

/**
 * The tape stepped on the portable kernel evalOpsVec<VPort<P>>, called
 * directly so BatchSim's CPU dispatch cannot substitute AVX2. Input
 * masking, pre-latch watch frames and the two-phase latch follow
 * BatchSim::step; only the op program's kernel is pinned.
 */
template <unsigned P>
class PortableSim
{
  public:
    explicit PortableSim(const sim::Tape &tape)
        : tp(tape), vals_(size_t(tape.numSlots) * P),
          in_(tape.numInputs() * P)
    {
        for (uint32_t s = 0; s < tp.numSlots; s++)
            std::fill_n(&vals_[size_t(s) * P], P, tp.init[s]);
    }

    void clearInputs() { std::fill(in_.begin(), in_.end(), 0); }

    void
    stageInputs(unsigned lane, const InputMap &in)
    {
        for (const auto &[sig, v] : in)
            if (tp.inputOrdinal[sig] != sim::kNoInput)
                in_[size_t(tp.inputOrdinal[sig]) * P + lane] = v;
    }

    void
    step()
    {
        for (size_t j = 0; j < tp.inputs.size(); j++)
            for (unsigned l = 0; l < P; l++)
                row(tp.inputs[j].slot)[l] = in_[j * P + l] &
                                            tp.inputs[j].mask;
        sim::detail::evalOpsVec<sim::detail::VPort<P>>(tp, vals_.data(),
                                                       P);
        for (sim::Slot s : tp.watchSlots)
            frames_.insert(frames_.end(), row(s), row(s) + P);
        std::vector<uint64_t> next;
        for (const sim::Tape::Latch &lt : tp.latches)
            next.insert(next.end(), row(lt.next), row(lt.next) + P);
        for (size_t j = 0; j < tp.latches.size(); j++)
            std::copy_n(&next[j * P], P, row(tp.latches[j].reg));
    }

    uint64_t
    watched(size_t t, size_t k, unsigned lane) const
    {
        return frames_[(t * tp.watchSlots.size() + k) * P + lane];
    }

  private:
    uint64_t *row(sim::Slot s) { return &vals_[size_t(s) * P]; }

    const sim::Tape &tp;
    std::vector<uint64_t> vals_, in_, frames_;
};

/** Mismatching (cycle, watch, lane) positions vs the interpreted
 *  oracle when @p engine (a BatchSim or PortableSim over @p tape) runs
 *  @p lanes seeded random programs. */
template <typename Engine>
size_t
diffAgainstOracle(const Design &d, const sim::Tape &tape, Engine &engine,
                  unsigned lanes, unsigned cycles, uint64_t seed)
{
    std::vector<std::vector<InputMap>> progs;
    for (unsigned l = 0; l < lanes; l++)
        progs.push_back(randomProgram(d, cycles, seed + 1000 * l));
    std::vector<Simulator> oracle;
    for (unsigned l = 0; l < lanes; l++)
        oracle.emplace_back(d);
    size_t diffs = 0;
    for (unsigned t = 0; t < cycles; t++) {
        engine.clearInputs();
        for (unsigned l = 0; l < lanes; l++) {
            engine.stageInputs(l, progs[l][t]);
            oracle[l].step(progs[l][t]);
        }
        engine.step();
        for (unsigned l = 0; l < lanes; l++)
            for (size_t k = 0; k < tape.watchSigs.size(); k++)
                if (engine.watched(t, k, l) !=
                    oracle[l].value(tape.watchSigs[k]))
                    diffs++;
    }
    return diffs;
}

/** diffAgainstOracle on BatchSim, i.e. the kernel the CPU dispatch
 *  picks for @p lanes. */
size_t
diffCount(const Design &d, const sim::Tape &tape, unsigned lanes,
          unsigned cycles, uint64_t seed)
{
    sim::BatchSim bs(tape, lanes);
    bs.reserveTrace(cycles);
    return diffAgainstOracle(d, tape, bs, lanes, cycles, seed);
}

/** diffAgainstOracle on the portable kernel at P lanes. */
template <unsigned P>
size_t
portableDiffCount(const Design &d, const sim::Tape &tape, unsigned cycles,
                  uint64_t seed)
{
    PortableSim<P> ps(tape);
    return diffAgainstOracle(d, tape, ps, P, cycles, seed);
}

} // namespace

TEST(SimBackends, BoundaryWidthsMatchOracleOnEveryBackendAndLaneWidth)
{
    for (unsigned w : {1u, 63u, 64u}) {
        Design d = buildBoundary(w);
        sim::Tape tape = sim::compileTape(d, watchAll(d));
        const uint64_t seed = 101 + w;
        for (unsigned lanes : {1u, 2u, 4u, 8u, 16u})
            EXPECT_EQ(diffCount(d, tape, lanes, 32, seed), 0u)
                << sim::simdIsa(lanes) << " width " << w << " lanes "
                << lanes;
        // The portable kernel at every width, whatever the host picks.
        const size_t portable[] = {
            portableDiffCount<1>(d, tape, 32, seed),
            portableDiffCount<2>(d, tape, 32, seed),
            portableDiffCount<4>(d, tape, 32, seed),
            portableDiffCount<8>(d, tape, 32, seed),
            portableDiffCount<16>(d, tape, 32, seed)};
        for (unsigned i = 0; i < 5; i++)
            EXPECT_EQ(portable[i], 0u)
                << "portable width " << w << " lanes " << (1u << i);
    }
}

TEST(SimBackends, SimdIsaReportsSomething)
{
    // Whatever the host is, the dispatcher must name its choice, and
    // narrow batches never take the four-lane AVX2 path.
    for (unsigned p : {1u, 2u, 4u, 8u, 16u}) {
        const std::string isa = sim::simdIsa(p);
        EXPECT_TRUE(isa == "avx2" || isa == "portable")
            << "P=" << p << ": " << isa;
        if (p < 4) {
            EXPECT_EQ(isa, "portable") << "P=" << p;
        }
    }
}
