#include "sim/simd.hh"

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
    if (P % detail::VWide::W == 0)
        detail::evalOpsVec<detail::VWide>(tp, vals, P);
    else
        detail::evalOpsVec<detail::VPort<1>>(tp, vals, P);
}

} // namespace rmp::sim
