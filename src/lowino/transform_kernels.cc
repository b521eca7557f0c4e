#include "lowino/transform_kernels.h"

#include <cmath>
#include <cstring>

#include "common/cpu_features.h"
#include "common/saturate.h"
#include "quant/quantize_avx512.h"

#ifdef LOWINO_COMPILE_AVX512
#include <immintrin.h>
#endif

namespace lowino {

void apply_plan_16(const CodeletPlan& plan, const float* in, std::size_t in_stride,
                   float* out, std::size_t out_stride) {
  // Slots: up to alpha inputs + 2*alpha temps; alpha <= 10 in this library.
  float temps[32 * 16];
  for (const PlanStep& step : plan.steps()) {
    float* __restrict dst =
        step.is_output ? out + step.index * out_stride : temps + step.index * 16;
    if (step.terms.empty()) {
      std::memset(dst, 0, 16 * sizeof(float));
      continue;
    }
    const std::size_t n_in = plan.n_in();
    const auto src_of = [&](std::size_t s) -> const float* {
      return s < n_in ? in + s * in_stride : temps + (s - n_in) * 16;
    };
    {
      const float* __restrict s0 = src_of(step.terms[0].src);
      const float c0 = step.terms[0].coeff;
      for (int l = 0; l < 16; ++l) dst[l] = c0 * s0[l];
    }
    for (std::size_t ti = 1; ti < step.terms.size(); ++ti) {
      const float* __restrict s = src_of(step.terms[ti].src);
      const float c = step.terms[ti].coeff;
      for (int l = 0; l < 16; ++l) dst[l] += c * s[l];
    }
  }
}

#ifdef LOWINO_COMPILE_AVX512
namespace {

// Hand-scheduled codelets for the canonical Lavin matrices (Eq. 2). The
// schedules mirror the CSE structure the planner finds (shared symmetric /
// anti-symmetric sub-expressions of the +/- point pairs), fully unrolled and
// FMA-contracted — the output of the paper's codelet generator (Figure 4).

/// B^T(2,3): [d0-d2, d1+d2, d2-d1, d1-d3].
inline void bt_f23(const float* in, std::size_t is, float* out, std::size_t os) {
  const __m512 d0 = _mm512_loadu_ps(in);
  const __m512 d1 = _mm512_loadu_ps(in + is);
  const __m512 d2 = _mm512_loadu_ps(in + 2 * is);
  const __m512 d3 = _mm512_loadu_ps(in + 3 * is);
  _mm512_storeu_ps(out, _mm512_sub_ps(d0, d2));
  _mm512_storeu_ps(out + os, _mm512_add_ps(d1, d2));
  _mm512_storeu_ps(out + 2 * os, _mm512_sub_ps(d2, d1));
  _mm512_storeu_ps(out + 3 * os, _mm512_sub_ps(d1, d3));
}

/// A^T(2,3): [z0+z1+z2, z1-z2-z3].
inline void at_f23(const float* in, std::size_t is, float* out, std::size_t os) {
  const __m512 z0 = _mm512_loadu_ps(in);
  const __m512 z1 = _mm512_loadu_ps(in + is);
  const __m512 z2 = _mm512_loadu_ps(in + 2 * is);
  const __m512 z3 = _mm512_loadu_ps(in + 3 * is);
  _mm512_storeu_ps(out, _mm512_add_ps(_mm512_add_ps(z0, z1), z2));
  _mm512_storeu_ps(out + os, _mm512_sub_ps(_mm512_sub_ps(z1, z2), z3));
}

/// B^T(4,3) rows (Eq. 2):
///   r0 = 4 d0 - 5 d2 + d4
///   r1/r2 = (d4 - 4 d2) +- (d3 - 4 d1)
///   r3/r4 = (d4 - d2) +- 2 (d3 - d1)
///   r5 = 4 d1 - 5 d3 + d5
inline void bt_f43(const float* in, std::size_t is, float* out, std::size_t os) {
  const __m512 d0 = _mm512_loadu_ps(in);
  const __m512 d1 = _mm512_loadu_ps(in + is);
  const __m512 d2 = _mm512_loadu_ps(in + 2 * is);
  const __m512 d3 = _mm512_loadu_ps(in + 3 * is);
  const __m512 d4 = _mm512_loadu_ps(in + 4 * is);
  const __m512 d5 = _mm512_loadu_ps(in + 5 * is);
  const __m512 four = _mm512_set1_ps(4.0f);
  const __m512 five = _mm512_set1_ps(5.0f);
  const __m512 two = _mm512_set1_ps(2.0f);

  const __m512 r0 = _mm512_fnmadd_ps(five, d2, _mm512_fmadd_ps(four, d0, d4));
  const __m512 ts = _mm512_fnmadd_ps(four, d2, d4);
  const __m512 ta = _mm512_fnmadd_ps(four, d1, d3);
  const __m512 ts2 = _mm512_sub_ps(d4, d2);
  const __m512 ta2 = _mm512_sub_ps(d3, d1);
  const __m512 r5 = _mm512_fnmadd_ps(five, d3, _mm512_fmadd_ps(four, d1, d5));

  _mm512_storeu_ps(out, r0);
  _mm512_storeu_ps(out + os, _mm512_add_ps(ts, ta));
  _mm512_storeu_ps(out + 2 * os, _mm512_sub_ps(ts, ta));
  _mm512_storeu_ps(out + 3 * os, _mm512_fmadd_ps(two, ta2, ts2));
  _mm512_storeu_ps(out + 4 * os, _mm512_fnmadd_ps(two, ta2, ts2));
  _mm512_storeu_ps(out + 5 * os, r5);
}

/// A^T(4,3) rows:
///   r0 = z0 + (z1+z2) + (z3+z4)
///   r1 = (z1-z2) + 2 (z3-z4)
///   r2 = (z1+z2) + 4 (z3+z4)
///   r3 = (z1-z2) + 8 (z3-z4) + z5
inline void at_f43(const float* in, std::size_t is, float* out, std::size_t os) {
  const __m512 z0 = _mm512_loadu_ps(in);
  const __m512 z1 = _mm512_loadu_ps(in + is);
  const __m512 z2 = _mm512_loadu_ps(in + 2 * is);
  const __m512 z3 = _mm512_loadu_ps(in + 3 * is);
  const __m512 z4 = _mm512_loadu_ps(in + 4 * is);
  const __m512 z5 = _mm512_loadu_ps(in + 5 * is);
  const __m512 s = _mm512_add_ps(z1, z2);
  const __m512 dif = _mm512_sub_ps(z1, z2);
  const __m512 s2 = _mm512_add_ps(z3, z4);
  const __m512 d2 = _mm512_sub_ps(z3, z4);
  _mm512_storeu_ps(out, _mm512_add_ps(_mm512_add_ps(z0, s), s2));
  _mm512_storeu_ps(out + os, _mm512_fmadd_ps(_mm512_set1_ps(2.0f), d2, dif));
  _mm512_storeu_ps(out + 2 * os, _mm512_fmadd_ps(_mm512_set1_ps(4.0f), s2, s));
  _mm512_storeu_ps(out + 3 * os,
                   _mm512_add_ps(_mm512_fmadd_ps(_mm512_set1_ps(8.0f), d2, dif), z5));
}

}  // namespace
#endif  // LOWINO_COMPILE_AVX512

bool apply_bt_16(std::size_t m, std::size_t r, const float* in, std::size_t in_stride,
                 float* out, std::size_t out_stride) {
#ifdef LOWINO_COMPILE_AVX512
  if (r == 3 && cpu_features().has_avx512_kernels()) {
    if (m == 2) {
      bt_f23(in, in_stride, out, out_stride);
      return true;
    }
    if (m == 4) {
      bt_f43(in, in_stride, out, out_stride);
      return true;
    }
  }
#else
  (void)m, (void)r, (void)in, (void)in_stride, (void)out, (void)out_stride;
#endif
  return false;
}

bool apply_at_16(std::size_t m, std::size_t r, const float* in, std::size_t in_stride,
                 float* out, std::size_t out_stride) {
#ifdef LOWINO_COMPILE_AVX512
  if (r == 3 && cpu_features().has_avx512_kernels()) {
    if (m == 2) {
      at_f23(in, in_stride, out, out_stride);
      return true;
    }
    if (m == 4) {
      at_f43(in, in_stride, out, out_stride);
      return true;
    }
  }
#else
  (void)m, (void)r, (void)in, (void)in_stride, (void)out, (void)out_stride;
#endif
  return false;
}

void quantize16_u8(const float* src, float scale, std::uint8_t* dst) {
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_avx512_kernels()) {
    const __m512 v = _mm512_mul_ps(_mm512_loadu_ps(src), _mm512_set1_ps(scale));
    const __m512i q = _mm512_add_epi32(quantize_i32x16(v, 0xFFFF), _mm512_set1_epi32(128));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm512_cvtepi32_epi8(q));
    return;
  }
#endif
  for (int l = 0; l < 16; ++l) dst[l] = quantize_u8_shift128_scaled(src[l] * scale);
}

void dequant16(const std::int32_t* src, const float* dequant, float* dst) {
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_avx512_kernels()) {
    const __m512 v = _mm512_cvtepi32_ps(_mm512_loadu_si512(src));
    _mm512_storeu_ps(dst, _mm512_mul_ps(v, _mm512_loadu_ps(dequant)));
    return;
  }
#endif
  for (int l = 0; l < 16; ++l) {
    dst[l] = static_cast<float>(src[l]) * dequant[l];
  }
}

void stream_store_64(void* dst, const void* src, bool non_temporal) {
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_avx512_kernels()) {
    const __m512i line = _mm512_load_si512(src);
    if (non_temporal) {
      _mm512_stream_si512(reinterpret_cast<__m512i*>(dst), line);
    } else {
      _mm512_store_si512(dst, line);
    }
    return;
  }
#endif
  std::memcpy(dst, src, 64);
}

void stream_fence() {
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_avx512_kernels()) _mm_sfence();
#endif
}

}  // namespace lowino
