// Saturating conversions used by the quantization pipeline (Eq. 4 of the paper).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace lowino {

/// Round-to-nearest (ties away from zero, matching std::lrintf-with-round
/// semantics used by the vector kernels' _mm512_cvtps_epi32 in round-nearest
/// mode would be ties-to-even; we standardize on nearest-even everywhere so
/// scalar and vector paths agree bit-exactly).
inline std::int32_t round_nearest_even(float v) {
  // std::nearbyint honors the current rounding mode, which is round-to-nearest-
  // even by default — the same mode _mm512_cvtps_epi32 uses.
  return static_cast<std::int32_t>(std::nearbyintf(v));
}

/// Saturating FP32 -> INT8 conversion: S_INT8 in Eq. 4.
inline std::int8_t saturate_cast_i8(float v) {
  const std::int32_t r = round_nearest_even(v);
  return static_cast<std::int8_t>(std::clamp(r, -128, 127));
}

/// Saturating FP32 -> UINT8 (used after the +128 compensation shift).
inline std::uint8_t saturate_cast_u8(float v) {
  const std::int32_t r = round_nearest_even(v);
  return static_cast<std::uint8_t>(std::clamp(r, 0, 255));
}

/// The u8 hand-off encoding of one already-scaled value (DESIGN.md decision
/// 13): round to nearest even, then +128, saturated to [0, 255]. The clamp
/// happens in float, before the conversion, so no out-of-range float ever
/// reaches the integer conversion (undefined in C++, "integer indefinite" in
/// SIMD). Non-finite contract: NaN encodes as 128 (quantized zero), +Inf and
/// every value above the range as 255, -Inf and every value below it as 0.
inline std::uint8_t quantize_u8_shift128_scaled(float scaled) {
  const float x = std::isnan(scaled) ? 0.0f : std::clamp(scaled, -128.0f, 127.0f);
  return static_cast<std::uint8_t>(round_nearest_even(x) + 128);
}

/// Saturating INT32 -> INT8.
inline std::int8_t saturate_i32_to_i8(std::int32_t v) {
  return static_cast<std::int8_t>(std::clamp(v, -128, 127));
}

/// Saturating INT32 -> INT16 (up-casting baseline).
inline std::int16_t saturate_i32_to_i16(std::int32_t v) {
  return static_cast<std::int16_t>(std::clamp(v, -32768, 32767));
}

}  // namespace lowino
