// The dequant / +sum / ReLU / requant tail of the direct INT8 engines' blocked
// cores (direct_int8.h, direct_depthwise.h), over one 64-lane
// pixel of the blocked layout. Every lane follows the float order the engines
// have always used — v = acc * dq + bias, then + residual, then ReLU, then
// requant — so a lane's bits do not depend on the layout it is stored in.
// store_groups, the in-register form the VNNI tiles of both engines store
// from, writes the same expressions as store's scalar body (which their
// non-VNNI paths run); the build's -ffp-contract=fast
// (CMakeLists.txt) lets the compiler contract both alike (acc * dq + bias into
// one FMA), so both give the same bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "quant/quantize.h"
#include "quant/quantize_avx512.h"
#include "tensor/conv_desc.h"
#include "tensor/post_ops.h"

namespace lowino {

struct BlockedEpilogue {
  PostOps post;  ///< a copy, so the kernels keep its fields in registers
  bool out_u8 = false;
  float requant = 1.0f;  ///< the u8 output's scale (out_u8 only)

  /// Stores the pixel whose lane 0 sits at element `at` of the blocked output
  /// (and of the residual, which shares the output's layout and may alias
  /// it: each lane's residual is read before the pixel is stored). Lanes
  /// below `valid` take the epilogue of acc[l] with dequant dq[l] and bias
  /// bias[l]; the rest get quantized zero (0.0f, or byte 128). The u8
  /// requant is the hand-off encoding, clamped in float (NaN -> 128, +-Inf
  /// saturate), so a non-finite residual never reaches a float->int
  /// conversion.
  void store(const std::int32_t* acc, const float* dq, const float* bias, std::size_t valid,
             std::size_t at, void* output) const {
    if (valid == kChanBlock) {
      store_lanes(acc, dq, bias, std::integral_constant<std::size_t, kChanBlock>{}, at, output);
    } else {
      store_lanes(acc, dq, bias, valid, at, output);
    }
  }

#ifdef LOWINO_COMPILE_AVX512
  /// store() on the pixel's first G 16-lane groups held in registers (group
  /// g's lanes outside lanes[g] are padding); groups past G are padding.
  template <int G>
  [[gnu::always_inline]] void store_groups(const __m512i* acc, const __m512* dq,
                                           const __m512* bias, const __mmask16* lanes,
                                           std::size_t at, void* output) const {
    const __m512 zero = _mm512_setzero_ps();
    __m512 v[G];
    for (int g = 0; g < G; ++g) {
      v[g] = _mm512_add_ps(_mm512_mul_ps(_mm512_cvtepi32_ps(acc[g]), dq[g]), bias[g]);
      if (post.sum != nullptr) v[g] = _mm512_add_ps(v[g], _mm512_loadu_ps(post.sum + at + g * 16));
      if (post.sum_u8 != nullptr) {
        const __m512i q = _mm512_cvtepu8_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(post.sum_u8 + at + g * 16)));
        const __m512 res = _mm512_cvtepi32_ps(_mm512_sub_epi32(q, _mm512_set1_epi32(128)));
        v[g] = _mm512_add_ps(v[g], _mm512_mul_ps(res, _mm512_set1_ps(post.sum_u8_inv_scale)));
      }
      // max(v, 0) takes its second operand on NaN and on -0, as
      // std::max(0.0f, v) does.
      if (post.relu) v[g] = _mm512_max_ps(v[g], zero);
    }
    if (!out_u8) {
      float* dst = static_cast<float*>(output) + at;
      for (int g = 0; g < 4; ++g) {
        _mm512_storeu_ps(dst + g * 16, g < G ? _mm512_maskz_mov_ps(lanes[g], v[g]) : zero);
      }
      return;
    }
    const __m512 scale = _mm512_set1_ps(requant);
    __m512i q[4];
    for (int g = 0; g < 4; ++g) {
      q[g] = g < G ? quantize_i32x16(_mm512_mul_ps(v[g], scale), lanes[g])
                   : _mm512_setzero_si512();
    }
    _mm512_storeu_si512(static_cast<std::uint8_t*>(output) + at,
                        pack_u8x64(q[0], q[1], q[2], q[3]));
  }
#endif

 private:
  template <typename Valid>
  void store_lanes(const std::int32_t* acc, const float* dq, const float* bias, Valid valid,
                   std::size_t at, void* output) const {
    alignas(64) float v[kChanBlock];
    for (std::size_t l = 0; l < valid; ++l) v[l] = static_cast<float>(acc[l]) * dq[l] + bias[l];
    if (post.sum != nullptr) {
      const float* res = post.sum + at;
      for (std::size_t l = 0; l < valid; ++l) v[l] += res[l];
    }
    if (post.sum_u8 != nullptr) {
      const std::uint8_t* res8 = post.sum_u8 + at;
      const float inv = post.sum_u8_inv_scale;
      for (std::size_t l = 0; l < valid; ++l) {
        v[l] += static_cast<float>(static_cast<std::int32_t>(res8[l]) - 128) * inv;
      }
    }
    if (post.relu) {
      for (std::size_t l = 0; l < valid; ++l) v[l] = std::max(0.0f, v[l]);
    }
    if (out_u8) {
      std::uint8_t* dst = static_cast<std::uint8_t*>(output) + at;
      // The quantizer's vector body: a lane loop of the scalar helper
      // vectorizes into a slow chain of mask operations (its NaN-exact clamp).
      quantize_u8_shift128({v, valid}, requant, {dst, valid});
      for (std::size_t l = valid; l < kChanBlock; ++l) dst[l] = 128;
    } else {
      float* dst = static_cast<float*>(output) + at;
      for (std::size_t l = 0; l < valid; ++l) dst[l] = v[l];
      for (std::size_t l = valid; l < kChanBlock; ++l) dst[l] = 0.0f;
    }
  }
};

}  // namespace lowino
