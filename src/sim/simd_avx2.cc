/**
 * @file
 * AVX2 tape kernel: four 64-bit lanes per __m256i.
 *
 * This is the only translation unit compiled with -mavx2 (the build adds
 * the flag per-source when the compiler supports it and defines
 * RMP_SIMD_AVX2_TU); simd.cc calls in here only after a runtime
 * __builtin_cpu_supports("avx2") check, so the rest of the binary stays
 * runnable on baseline x86-64. AVX2 gives direct forms for 64-bit
 * equality, per-lane variable shifts (whose count >= 64 -> 0 semantics
 * exactly match the tape's), and byte blends for Mux; the 64-bit
 * multiply is composed from 32-bit partial products and the unsigned
 * compare from the signed one.
 */

#include "sim/simd_kernels.hh"

#if defined(RMP_SIMD_AVX2_TU) && defined(__AVX2__)

#include <immintrin.h>

namespace rmp::sim::detail
{

namespace
{

struct VAvx2
{
    static constexpr unsigned W = 4;
    __m256i x;

    static VAvx2
    load(const uint64_t *p)
    {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i *>(p))};
    }
    void
    store(uint64_t *p) const
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), x);
    }
    static VAvx2 splat(uint64_t v)
    {
        return {_mm256_set1_epi64x(static_cast<long long>(v))};
    }

    static VAvx2 band(const VAvx2 &a, const VAvx2 &b)
    {
        return {_mm256_and_si256(a.x, b.x)};
    }
    static VAvx2 bor(const VAvx2 &a, const VAvx2 &b)
    {
        return {_mm256_or_si256(a.x, b.x)};
    }
    static VAvx2 bxor(const VAvx2 &a, const VAvx2 &b)
    {
        return {_mm256_xor_si256(a.x, b.x)};
    }
    static VAvx2 notm(const VAvx2 &a, const VAvx2 &m)
    {
        return {_mm256_andnot_si256(a.x, m.x)}; // (~a) & m
    }
    static VAvx2 add(const VAvx2 &a, const VAvx2 &b)
    {
        return {_mm256_add_epi64(a.x, b.x)};
    }
    static VAvx2 sub(const VAvx2 &a, const VAvx2 &b)
    {
        return {_mm256_sub_epi64(a.x, b.x)};
    }
    static VAvx2
    mul(const VAvx2 &a, const VAvx2 &b)
    {
        // 64-bit product from 32x32->64 partials (hi*hi shifts out).
        __m256i lolo = _mm256_mul_epu32(a.x, b.x);
        __m256i lohi = _mm256_mul_epu32(a.x, _mm256_srli_epi64(b.x, 32));
        __m256i hilo = _mm256_mul_epu32(_mm256_srli_epi64(a.x, 32), b.x);
        __m256i mid = _mm256_slli_epi64(_mm256_add_epi64(lohi, hilo), 32);
        return {_mm256_add_epi64(lolo, mid)};
    }
    static VAvx2
    eq01(const VAvx2 &a, const VAvx2 &b)
    {
        return {_mm256_srli_epi64(_mm256_cmpeq_epi64(a.x, b.x), 63)};
    }
    static VAvx2
    ne01(const VAvx2 &a)
    {
        __m256i z = _mm256_cmpeq_epi64(a.x, _mm256_setzero_si256());
        return {_mm256_andnot_si256(z, _mm256_set1_epi64x(1))};
    }
    static VAvx2
    ult01(const VAvx2 &a, const VAvx2 &b)
    {
        // Unsigned < from the signed compare by flipping the sign bit.
        const __m256i bias = _mm256_set1_epi64x(
            static_cast<long long>(0x8000000000000000ULL));
        __m256i lt = _mm256_cmpgt_epi64(_mm256_xor_si256(b.x, bias),
                                        _mm256_xor_si256(a.x, bias));
        return {_mm256_srli_epi64(lt, 63)};
    }
    static VAvx2
    shl(const VAvx2 &a, const VAvx2 &b)
    {
        // sllv: count >= 64 yields 0, exactly the tape's semantics.
        return {_mm256_sllv_epi64(a.x, b.x)};
    }
    static VAvx2
    shr(const VAvx2 &a, const VAvx2 &b)
    {
        return {_mm256_srlv_epi64(a.x, b.x)};
    }
    static VAvx2
    mux(const VAvx2 &s, const VAvx2 &b, const VAvx2 &c)
    {
        // blendv picks c where the (all-ones) s == 0 mask is set.
        __m256i z = _mm256_cmpeq_epi64(s.x, _mm256_setzero_si256());
        return {_mm256_blendv_epi8(b.x, c.x, z)};
    }
    static VAvx2
    shlc(const VAvx2 &a, unsigned s)
    {
        return {
            _mm256_sll_epi64(a.x, _mm_cvtsi32_si128(static_cast<int>(s)))};
    }
    static VAvx2
    shrc(const VAvx2 &a, unsigned s)
    {
        return {
            _mm256_srl_epi64(a.x, _mm_cvtsi32_si128(static_cast<int>(s)))};
    }
};

} // anonymous namespace

void
simdEvalOpsAvx2(const Tape &tp, uint64_t *vals, unsigned P)
{
    evalOpsVec<VAvx2>(tp, vals, P);
}

} // namespace rmp::sim::detail

#elif defined(RMP_SIMD_AVX2_TU)

// Flag was set but __AVX2__ is absent (unexpected toolchain): keep the
// symbol so simd.cc links, backed by the portable four-lane kernel.
namespace rmp::sim::detail
{
void
simdEvalOpsAvx2(const Tape &tp, uint64_t *vals, unsigned P)
{
    evalOpsVec<VPort<4>>(tp, vals, P);
}
} // namespace rmp::sim::detail

#endif
