/**
 * @file
 * The tape kernel template behind BatchSim::step (DESIGN.md §3h,
 * "Kernel and CPU dispatch").
 *
 * The tape's SoA layout — vals[slot * P + lane] — makes every op a dense
 * strip of P independent 64-bit lanes. evalOpsVec<V> vectorizes that
 * strip explicitly through a small vector-value abstraction V:
 *
 *   VPort<W>  portable fixed-width array, plain loops the compiler may
 *             autovectorize; instantiated at W = P, so one value covers
 *             a slot's whole lane row;
 *   VAvx2     four lanes per __m256i — lives in simd_avx2.cc, the only
 *             TU compiled with -mavx2, and is selected at runtime.
 *
 * evalOpsVec<V> fuses each levelized same-opcode run (compileTape groups
 * ops by opcode within a topo level) into one switch arm: a single
 * opcode test covers the whole run, and the inner loops are straight
 * vector ops with no per-op dispatch at all. Ops inside a run execute
 * sequentially — a run can span topo levels, so op k may legitimately
 * read op k-1's destination; only lanes are vectorized, never ops.
 *
 * Every instantiation must match the interpreted Simulator bit for bit;
 * the differential tests (test_sim_compiled, test_sim_backends) enforce
 * it on boundary widths (1, 63, 64) and seeded random programs.
 */

#ifndef SIM_SIMD_KERNELS_HH
#define SIM_SIMD_KERNELS_HH

#include <cstdint>

#include "sim/tape.hh"

namespace rmp::sim::detail
{

/** Portable vector of W 64-bit lanes; plain loops the compiler may
 *  autovectorize. VPort<1> is the scalar kernel of single-lane replay. */
template <unsigned W_>
struct VPort
{
    static constexpr unsigned W = W_;
    uint64_t x[W_];

    static VPort
    load(const uint64_t *p)
    {
        VPort r;
        for (unsigned i = 0; i < W; i++)
            r.x[i] = p[i];
        return r;
    }
    void
    store(uint64_t *p) const
    {
        for (unsigned i = 0; i < W; i++)
            p[i] = x[i];
    }
    static VPort
    splat(uint64_t v)
    {
        VPort r;
        for (unsigned i = 0; i < W; i++)
            r.x[i] = v;
        return r;
    }

#define RMP_VPORT_LANEWISE(NAME, EXPR)                                     \
    static VPort NAME(const VPort &a, const VPort &b)                      \
    {                                                                      \
        VPort r;                                                           \
        for (unsigned i = 0; i < W; i++)                                   \
            r.x[i] = (EXPR);                                               \
        return r;                                                          \
    }
    RMP_VPORT_LANEWISE(band, a.x[i] & b.x[i])
    RMP_VPORT_LANEWISE(bor, a.x[i] | b.x[i])
    RMP_VPORT_LANEWISE(bxor, a.x[i] ^ b.x[i])
    /** (~a) & m — the mask operand makes Not width-correct. */
    RMP_VPORT_LANEWISE(notm, ~a.x[i] & b.x[i])
    RMP_VPORT_LANEWISE(add, a.x[i] + b.x[i])
    RMP_VPORT_LANEWISE(sub, a.x[i] - b.x[i])
    RMP_VPORT_LANEWISE(mul, a.x[i] * b.x[i])
    RMP_VPORT_LANEWISE(eq01, a.x[i] == b.x[i] ? 1 : 0)
    RMP_VPORT_LANEWISE(ult01, a.x[i] < b.x[i] ? 1 : 0)
    RMP_VPORT_LANEWISE(shl, b.x[i] >= 64 ? 0 : a.x[i] << b.x[i])
    RMP_VPORT_LANEWISE(shr, b.x[i] >= 64 ? 0 : a.x[i] >> b.x[i])
#undef RMP_VPORT_LANEWISE

    static VPort
    ne01(const VPort &a)
    {
        VPort r;
        for (unsigned i = 0; i < W; i++)
            r.x[i] = a.x[i] != 0 ? 1 : 0;
        return r;
    }
    static VPort
    mux(const VPort &s, const VPort &b, const VPort &c)
    {
        VPort r;
        for (unsigned i = 0; i < W; i++)
            r.x[i] = s.x[i] ? b.x[i] : c.x[i];
        return r;
    }
    /** Constant shifts (Slice / Concat): s is in [0, 63]. */
    static VPort
    shlc(const VPort &a, unsigned s)
    {
        VPort r;
        for (unsigned i = 0; i < W; i++)
            r.x[i] = a.x[i] << s;
        return r;
    }
    static VPort
    shrc(const VPort &a, unsigned s)
    {
        VPort r;
        for (unsigned i = 0; i < W; i++)
            r.x[i] = a.x[i] >> s;
        return r;
    }
};

// NOLINTBEGIN(cppcoreguidelines-macro-usage)
#define RMP_KRN_UNARY()                                                    \
    uint64_t *__restrict pd = v + size_t(dd[i]) * P;                       \
    const uint64_t *pa = v + size_t(da[i]) * P
#define RMP_KRN_BINARY()                                                   \
    RMP_KRN_UNARY();                                                       \
    const uint64_t *pb = v + size_t(db[i]) * P
#define RMP_KRN_TERNARY()                                                  \
    RMP_KRN_BINARY();                                                      \
    const uint64_t *pc = v + size_t(dc[i]) * P

/** One switch arm: drain the whole same-opcode run [i, e). */
#define RMP_KRN_RUN(TOPC, BODY)                                            \
    case TOp::TOPC:                                                        \
        for (; i < e; i++) {                                               \
            BODY                                                           \
        }                                                                  \
        break

/**
 * Execute the tape's op program over @p P physical lanes of @p v with
 * vector type V. Requires P % V::W == 0; simdEvalOps guarantees it by
 * construction (VAvx2 only at P >= 4, VPort<P> otherwise).
 */
template <typename V>
void
evalOpsVec(const Tape &tp, uint64_t *v, unsigned P)
{
    const size_t n = tp.opc.size();
    const uint8_t *opc = tp.opc.data();
    const Slot *dd = tp.dst.data();
    const Slot *da = tp.a.data();
    const Slot *db = tp.b.data();
    const Slot *dc = tp.c.data();
    const uint32_t *aux = tp.aux.data();
    const uint64_t *msk = tp.mask.data();

    size_t i = 0;
    while (i < n) {
        // One dispatch per same-opcode run: compileTape groups ops by
        // opcode within each topo level, so runs are long.
        const uint8_t o = opc[i];
        size_t e = i + 1;
        while (e < n && opc[e] == o)
            e++;
        switch (static_cast<TOp>(o)) {
            RMP_KRN_RUN(Not, {
                RMP_KRN_UNARY();
                const V m = V::splat(msk[i]);
                for (unsigned l = 0; l < P; l += V::W)
                    V::notm(V::load(pa + l), m).store(pd + l);
            });
            RMP_KRN_RUN(And, {
                RMP_KRN_BINARY();
                for (unsigned l = 0; l < P; l += V::W)
                    V::band(V::load(pa + l), V::load(pb + l)).store(pd + l);
            });
            RMP_KRN_RUN(Or, {
                RMP_KRN_BINARY();
                for (unsigned l = 0; l < P; l += V::W)
                    V::bor(V::load(pa + l), V::load(pb + l)).store(pd + l);
            });
            RMP_KRN_RUN(Xor, {
                RMP_KRN_BINARY();
                for (unsigned l = 0; l < P; l += V::W)
                    V::bxor(V::load(pa + l), V::load(pb + l)).store(pd + l);
            });
            RMP_KRN_RUN(RedOr, {
                RMP_KRN_UNARY();
                for (unsigned l = 0; l < P; l += V::W)
                    V::ne01(V::load(pa + l)).store(pd + l);
            });
            RMP_KRN_RUN(RedAnd, {
                RMP_KRN_UNARY();
                const V m = V::splat(msk[i]);
                for (unsigned l = 0; l < P; l += V::W)
                    V::eq01(V::load(pa + l), m).store(pd + l);
            });
            RMP_KRN_RUN(Eq, {
                RMP_KRN_BINARY();
                for (unsigned l = 0; l < P; l += V::W)
                    V::eq01(V::load(pa + l), V::load(pb + l)).store(pd + l);
            });
            RMP_KRN_RUN(Ult, {
                RMP_KRN_BINARY();
                for (unsigned l = 0; l < P; l += V::W)
                    V::ult01(V::load(pa + l), V::load(pb + l)).store(pd + l);
            });
            RMP_KRN_RUN(Add, {
                RMP_KRN_BINARY();
                const V m = V::splat(msk[i]);
                for (unsigned l = 0; l < P; l += V::W)
                    V::band(V::add(V::load(pa + l), V::load(pb + l)), m)
                        .store(pd + l);
            });
            RMP_KRN_RUN(Sub, {
                RMP_KRN_BINARY();
                const V m = V::splat(msk[i]);
                for (unsigned l = 0; l < P; l += V::W)
                    V::band(V::sub(V::load(pa + l), V::load(pb + l)), m)
                        .store(pd + l);
            });
            RMP_KRN_RUN(Mul, {
                RMP_KRN_BINARY();
                const V m = V::splat(msk[i]);
                for (unsigned l = 0; l < P; l += V::W)
                    V::band(V::mul(V::load(pa + l), V::load(pb + l)), m)
                        .store(pd + l);
            });
            RMP_KRN_RUN(Shl, {
                RMP_KRN_BINARY();
                const V m = V::splat(msk[i]);
                for (unsigned l = 0; l < P; l += V::W)
                    V::band(V::shl(V::load(pa + l), V::load(pb + l)), m)
                        .store(pd + l);
            });
            RMP_KRN_RUN(Shr, {
                RMP_KRN_BINARY();
                const V m = V::splat(msk[i]);
                for (unsigned l = 0; l < P; l += V::W)
                    V::band(V::shr(V::load(pa + l), V::load(pb + l)), m)
                        .store(pd + l);
            });
            RMP_KRN_RUN(Mux, {
                RMP_KRN_TERNARY();
                for (unsigned l = 0; l < P; l += V::W)
                    V::mux(V::load(pa + l), V::load(pb + l),
                           V::load(pc + l))
                        .store(pd + l);
            });
            RMP_KRN_RUN(Slice, {
                RMP_KRN_UNARY();
                const V m = V::splat(msk[i]);
                const unsigned s = aux[i];
                for (unsigned l = 0; l < P; l += V::W)
                    V::band(V::shrc(V::load(pa + l), s), m).store(pd + l);
            });
            RMP_KRN_RUN(Concat, {
                RMP_KRN_BINARY();
                const unsigned s = aux[i];
                for (unsigned l = 0; l < P; l += V::W)
                    V::bor(V::shlc(V::load(pa + l), s), V::load(pb + l))
                        .store(pd + l);
            });
        }
        i = e;
    }
}

#undef RMP_KRN_RUN
#undef RMP_KRN_TERNARY
#undef RMP_KRN_BINARY
#undef RMP_KRN_UNARY
// NOLINTEND(cppcoreguidelines-macro-usage)

} // namespace rmp::sim::detail

#endif // SIM_SIMD_KERNELS_HH
