/**
 * @file
 * Internal vector-kernel templates for the compiled op-tape kernel
 * (DESIGN.md §3h, "The compiled kernel").
 *
 * The tape's SoA layout — vals[slot * P + lane] — makes every op a dense
 * strip of P independent 64-bit lanes. The kernels here vectorize that
 * strip explicitly through a small vector-value abstraction V:
 *
 *   VPort<W>  portable fixed-width array, plain loops (W = 1 is the
 *             scalar kernel used for P < the native vector width);
 *   VSse2     x86-64 baseline, two 64-bit lanes per __m128i;
 *   VNeon     AArch64, two 64-bit lanes per uint64x2_t;
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
 * Every kernel must match the interpreted Simulator bit for bit; the
 * differential tests (test_sim_compiled, test_sim_backends) enforce it
 * on boundary widths (1, 63, 64) and seeded random programs. Ops with
 * no native mapping (e.g. 64-bit multiply on SSE2/NEON, variable shifts
 * on SSE2) round-trip through a scalar strip — correctness first, the
 * surrounding ops still vectorize.
 */

#ifndef SIM_SIMD_KERNELS_HH
#define SIM_SIMD_KERNELS_HH

#include <cstdint>

#include "sim/tape.hh"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define RMP_SIMD_HAVE_SSE2 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define RMP_SIMD_HAVE_NEON 1
#endif

namespace rmp::sim::detail
{

/** Apply a scalar binary op lane by lane through a store/load round
 *  trip — the fallback for ops a given ISA has no native form of. */
template <typename V, typename F>
inline V
vmap2(const V &a, const V &b, F &&f)
{
    uint64_t ta[V::W], tb[V::W];
    a.store(ta);
    b.store(tb);
    for (unsigned i = 0; i < V::W; i++)
        ta[i] = f(ta[i], tb[i]);
    return V::load(ta);
}

/** Portable vector of W 64-bit lanes; plain loops the compiler may
 *  autovectorize. VPort<1> doubles as the scalar kernel. */
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

#if defined(RMP_SIMD_HAVE_SSE2)

/** x86-64 baseline kernel: two 64-bit lanes per __m128i. SSE2 has no
 *  64-bit compare/multiply/per-lane shift, so eq and mul are composed
 *  from 32-bit forms and ult / variable shifts fall back to the scalar
 *  strip. */
struct VSse2
{
    static constexpr unsigned W = 2;
    __m128i x;

    static VSse2
    load(const uint64_t *p)
    {
        return {_mm_loadu_si128(reinterpret_cast<const __m128i *>(p))};
    }
    void
    store(uint64_t *p) const
    {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p), x);
    }
    static VSse2 splat(uint64_t v)
    {
        return {_mm_set1_epi64x(static_cast<long long>(v))};
    }

    static VSse2 band(const VSse2 &a, const VSse2 &b)
    {
        return {_mm_and_si128(a.x, b.x)};
    }
    static VSse2 bor(const VSse2 &a, const VSse2 &b)
    {
        return {_mm_or_si128(a.x, b.x)};
    }
    static VSse2 bxor(const VSse2 &a, const VSse2 &b)
    {
        return {_mm_xor_si128(a.x, b.x)};
    }
    static VSse2 notm(const VSse2 &a, const VSse2 &m)
    {
        return {_mm_andnot_si128(a.x, m.x)}; // (~a) & m
    }
    static VSse2 add(const VSse2 &a, const VSse2 &b)
    {
        return {_mm_add_epi64(a.x, b.x)};
    }
    static VSse2 sub(const VSse2 &a, const VSse2 &b)
    {
        return {_mm_sub_epi64(a.x, b.x)};
    }
    static VSse2
    mul(const VSse2 &a, const VSse2 &b)
    {
        // 64-bit product from 32x32->64 partials:
        // lo*lo + ((lo*hi + hi*lo) << 32); the hi*hi term shifts out.
        __m128i lolo = _mm_mul_epu32(a.x, b.x);
        __m128i lohi = _mm_mul_epu32(a.x, _mm_srli_epi64(b.x, 32));
        __m128i hilo = _mm_mul_epu32(_mm_srli_epi64(a.x, 32), b.x);
        __m128i mid = _mm_slli_epi64(_mm_add_epi64(lohi, hilo), 32);
        return {_mm_add_epi64(lolo, mid)};
    }
    /** All-ones per 64-bit lane where a == b (composed from the 32-bit
     *  compare: both halves must match). */
    static __m128i
    eqMask(__m128i a, __m128i b)
    {
        __m128i t = _mm_cmpeq_epi32(a, b);
        return _mm_and_si128(t,
                             _mm_shuffle_epi32(t, _MM_SHUFFLE(2, 3, 0, 1)));
    }
    static VSse2
    eq01(const VSse2 &a, const VSse2 &b)
    {
        return {_mm_srli_epi64(eqMask(a.x, b.x), 63)};
    }
    static VSse2
    ne01(const VSse2 &a)
    {
        __m128i z = eqMask(a.x, _mm_setzero_si128());
        return {_mm_andnot_si128(z, _mm_set1_epi64x(1))};
    }
    static VSse2
    ult01(const VSse2 &a, const VSse2 &b)
    {
        return vmap2(a, b, [](uint64_t p, uint64_t q) -> uint64_t {
            return p < q ? 1 : 0;
        });
    }
    static VSse2
    shl(const VSse2 &a, const VSse2 &b)
    {
        return vmap2(a, b, [](uint64_t p, uint64_t q) -> uint64_t {
            return q >= 64 ? 0 : p << q;
        });
    }
    static VSse2
    shr(const VSse2 &a, const VSse2 &b)
    {
        return vmap2(a, b, [](uint64_t p, uint64_t q) -> uint64_t {
            return q >= 64 ? 0 : p >> q;
        });
    }
    static VSse2
    mux(const VSse2 &s, const VSse2 &b, const VSse2 &c)
    {
        __m128i z = eqMask(s.x, _mm_setzero_si128()); // ones where s == 0
        return {_mm_or_si128(_mm_and_si128(z, c.x),
                             _mm_andnot_si128(z, b.x))};
    }
    static VSse2
    shlc(const VSse2 &a, unsigned s)
    {
        return {_mm_sll_epi64(a.x, _mm_cvtsi32_si128(static_cast<int>(s)))};
    }
    static VSse2
    shrc(const VSse2 &a, unsigned s)
    {
        return {_mm_srl_epi64(a.x, _mm_cvtsi32_si128(static_cast<int>(s)))};
    }
};

using VWide = VSse2;

#elif defined(RMP_SIMD_HAVE_NEON)

/** AArch64 kernel: two 64-bit lanes per uint64x2_t. NEON has native
 *  64-bit compares and selects; multiply and variable shifts fall back
 *  to the scalar strip (vshlq's modulo-256 count semantics do not match
 *  the tape's shift >= 64 -> 0 rule for arbitrary 64-bit counts). */
struct VNeon
{
    static constexpr unsigned W = 2;
    uint64x2_t x;

    static VNeon load(const uint64_t *p) { return {vld1q_u64(p)}; }
    void store(uint64_t *p) const { vst1q_u64(p, x); }
    static VNeon splat(uint64_t v) { return {vdupq_n_u64(v)}; }

    static VNeon band(const VNeon &a, const VNeon &b)
    {
        return {vandq_u64(a.x, b.x)};
    }
    static VNeon bor(const VNeon &a, const VNeon &b)
    {
        return {vorrq_u64(a.x, b.x)};
    }
    static VNeon bxor(const VNeon &a, const VNeon &b)
    {
        return {veorq_u64(a.x, b.x)};
    }
    static VNeon notm(const VNeon &a, const VNeon &m)
    {
        return {vbicq_u64(m.x, a.x)}; // m & ~a
    }
    static VNeon add(const VNeon &a, const VNeon &b)
    {
        return {vaddq_u64(a.x, b.x)};
    }
    static VNeon sub(const VNeon &a, const VNeon &b)
    {
        return {vsubq_u64(a.x, b.x)};
    }
    static VNeon
    mul(const VNeon &a, const VNeon &b)
    {
        return vmap2(a, b,
                     [](uint64_t p, uint64_t q) -> uint64_t { return p * q; });
    }
    static VNeon
    eq01(const VNeon &a, const VNeon &b)
    {
        return {vshrq_n_u64(vceqq_u64(a.x, b.x), 63)};
    }
    static VNeon
    ne01(const VNeon &a)
    {
        return {vshrq_n_u64(vtstq_u64(a.x, a.x), 63)};
    }
    static VNeon
    ult01(const VNeon &a, const VNeon &b)
    {
        return {vshrq_n_u64(vcltq_u64(a.x, b.x), 63)};
    }
    static VNeon
    shl(const VNeon &a, const VNeon &b)
    {
        return vmap2(a, b, [](uint64_t p, uint64_t q) -> uint64_t {
            return q >= 64 ? 0 : p << q;
        });
    }
    static VNeon
    shr(const VNeon &a, const VNeon &b)
    {
        return vmap2(a, b, [](uint64_t p, uint64_t q) -> uint64_t {
            return q >= 64 ? 0 : p >> q;
        });
    }
    static VNeon
    mux(const VNeon &s, const VNeon &b, const VNeon &c)
    {
        uint64x2_t z = vceqq_u64(s.x, vdupq_n_u64(0));
        return {vbslq_u64(z, c.x, b.x)};
    }
    static VNeon
    shlc(const VNeon &a, unsigned s)
    {
        int64x2_t cnt = vdupq_n_s64(static_cast<int64_t>(s));
        return {vshlq_u64(a.x, cnt)};
    }
    static VNeon
    shrc(const VNeon &a, unsigned s)
    {
        int64x2_t cnt = vdupq_n_s64(-static_cast<int64_t>(s));
        return {vshlq_u64(a.x, cnt)};
    }
};

using VWide = VNeon;

#else

using VWide = VPort<4>;

#endif

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
 * vector type V. Requires P % V::W == 0; the caller (simdEvalOps)
 * guarantees it by construction (P is a power of two >= V::W).
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
