// Linear quantization with saturation (Eq. 4-6 of the paper).
//
//   Q(x)  = saturate_int8(round(alpha * x)),   alpha = (2^(b-1) - 1) / tau
//   Q'(q) = q / alpha
//
// tau is the calibrated threshold (quant/calibration.h); alpha the scale.
#pragma once

#include <cstdint>
#include <span>

namespace lowino {

/// Quantization parameters for one tensor (or one Winograd tile position).
struct QuantParams {
  float scale = 1.0f;      ///< alpha in Eq. 5
  float inv_scale = 1.0f;  ///< 1 / alpha, used by de-quantization (Eq. 6)

  /// At 8 bits, scale and inv_scale are finite and positive for every tau:
  /// tau <= 0, NaN and sub-normal tau give scale 1, and +inf saturates at
  /// FLT_MAX.
  static QuantParams from_threshold(float tau, int bits = 8);
  static QuantParams from_scale(float scale);
};

/// Largest absolute value in `values` (0 for empty input).
float abs_max(std::span<const float> values);

/// Quantizes FP32 -> INT8 with round-to-nearest-even and saturation.
void quantize_i8(std::span<const float> src, float scale, std::span<std::int8_t> dst);

/// Quantizes FP32 -> UINT8 with the +128 compensation shift of Section 4.2.1
/// (dst = saturate_u8(round(scale * src) + 128)), one
/// quantize_u8_shift128_scaled per element: NaN -> 128, +-Inf saturate. The
/// AVX-512 body (quant/quantize_avx512.h) gives the same bytes.
void quantize_u8_shift128(std::span<const float> src, float scale,
                          std::span<std::uint8_t> dst);

/// De-quantizes INT32 accumulator values: dst = src * inv_scale.
void dequantize_i32(std::span<const std::int32_t> src, float inv_scale, std::span<float> dst);

/// De-quantizes UINT8 values carrying the +128 zero-point shift (the u8
/// activation hand-off encoding): dst = (src - 128) * inv_scale. Inverse of
/// quantize_u8_shift128 up to the rounding step.
void dequantize_u8_shift128(std::span<const std::uint8_t> src, float inv_scale,
                            std::span<float> dst);

/// Round-trip quantization error measures (testing / Figure 9 utilities).
struct QuantError {
  double mse = 0.0;
  double max_abs = 0.0;
  double signal_to_noise_db = 0.0;
};
QuantError quantization_error(std::span<const float> reference, std::span<const float> actual);

}  // namespace lowino
