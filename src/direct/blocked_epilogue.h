// The dequant / +sum / ReLU / requant tail of the direct INT8 engines' blocked
// cores (direct_1x1.h, direct_depthwise.h), over one 64-lane pixel of the
// blocked layout. Every lane follows the float order the engines have always
// used — v = acc * dq + bias, then + residual, then ReLU, then requant — so a
// lane's bits do not depend on the layout it is stored in.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "common/saturate.h"
#include "tensor/conv_desc.h"
#include "tensor/post_ops.h"

namespace lowino {

struct BlockedEpilogue {
  const PostOps* post = nullptr;
  bool out_u8 = false;
  float requant = 1.0f;  ///< the u8 output's scale (out_u8 only)

  /// Stores the pixel whose lane 0 sits at element `at` of the blocked output
  /// (and of the residual, which shares the output's layout and may alias
  /// it: each lane's residual is read before the pixel is stored). Lanes
  /// below `valid` take the epilogue of acc[l] with dequant dq[l] and bias
  /// bias[l]; the rest get quantized zero (0.0f, or byte 128).
  void store(const std::int32_t* acc, const float* dq, const float* bias, std::size_t valid,
             std::size_t at, void* output) const {
    if (valid == kChanBlock) {
      store_lanes(acc, dq, bias, std::integral_constant<std::size_t, kChanBlock>{}, at, output);
    } else {
      store_lanes(acc, dq, bias, valid, at, output);
    }
  }

 private:
  template <typename Valid>
  void store_lanes(const std::int32_t* acc, const float* dq, const float* bias, Valid valid,
                   std::size_t at, void* output) const {
    alignas(64) float v[kChanBlock];
    for (std::size_t l = 0; l < valid; ++l) v[l] = static_cast<float>(acc[l]) * dq[l] + bias[l];
    if (post->sum != nullptr) {
      const float* res = post->sum + at;
      for (std::size_t l = 0; l < valid; ++l) v[l] += res[l];
    }
    if (post->sum_u8 != nullptr) {
      const std::uint8_t* res8 = post->sum_u8 + at;
      const float inv = post->sum_u8_inv_scale;
      for (std::size_t l = 0; l < valid; ++l) {
        v[l] += static_cast<float>(static_cast<std::int32_t>(res8[l]) - 128) * inv;
      }
    }
    if (post->relu) {
      for (std::size_t l = 0; l < valid; ++l) v[l] = std::max(0.0f, v[l]);
    }
    if (out_u8) {
      // Requant stage: same rounding contract as quantize_u8_shift128.
      std::uint8_t* dst = static_cast<std::uint8_t*>(output) + at;
      for (std::size_t l = 0; l < valid; ++l) {
        const std::int32_t q = round_nearest_even(v[l] * requant) + 128;
        dst[l] = static_cast<std::uint8_t>(std::clamp(q, 0, 255));
      }
      for (std::size_t l = valid; l < kChanBlock; ++l) dst[l] = 128;
    } else {
      float* dst = static_cast<float*>(output) + at;
      for (std::size_t l = 0; l < valid; ++l) dst[l] = v[l];
      for (std::size_t l = valid; l < kChanBlock; ++l) dst[l] = 0.0f;
    }
  }
};

}  // namespace lowino
