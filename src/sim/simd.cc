#include "sim/simd.hh"

#include "common/logging.hh"
#include "sim/simd_kernels.hh"

namespace rmp::sim
{

#if defined(RMP_SIMD_AVX2_TU)
namespace detail
{
/** Defined in simd_avx2.cc — the only TU compiled with -mavx2. */
void simdEvalOpsAvx2(const Tape &tp, uint64_t *vals, unsigned P);
} // namespace detail
#endif

namespace
{

bool
avx2Available()
{
#if defined(RMP_SIMD_AVX2_TU) && (defined(__GNUC__) || defined(__clang__)) \
    && (defined(__x86_64__) || defined(__i386__))
    static const bool ok = __builtin_cpu_supports("avx2");
    return ok;
#else
    return false;
#endif
}

} // anonymous namespace

void
simdEvalOps(const Tape &tp, uint64_t *vals, unsigned P)
{
#if defined(RMP_SIMD_AVX2_TU)
    if (P >= 4 && avx2Available()) {
        detail::simdEvalOpsAvx2(tp, vals, P);
        return;
    }
#endif
    using detail::evalOpsVec;
    using detail::VPort;
    switch (P) {
      case 1: evalOpsVec<VPort<1>>(tp, vals, P); break;
      case 2: evalOpsVec<VPort<2>>(tp, vals, P); break;
      case 4: evalOpsVec<VPort<4>>(tp, vals, P); break;
      case 8: evalOpsVec<VPort<8>>(tp, vals, P); break;
      case 16: evalOpsVec<VPort<16>>(tp, vals, P); break;
      default: rmp_panic("unsupported physical lane count %u", P);
    }
}

const char *
simdIsa(unsigned P)
{
    return P >= 4 && avx2Available() ? "avx2" : "portable";
}

} // namespace rmp::sim
