#include "quant/quantize.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/cpu_features.h"
#include "common/saturate.h"
#include "quant/quantize_avx512.h"

namespace lowino {

QuantParams QuantParams::from_threshold(float tau, int bits) {
  // Degenerate all-zero tensors calibrate to tau == 0; scale 1 keeps them
  // exactly representable (everything quantizes to 0).
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  // An infinite tau would give scale 0 and inv_scale +inf (every de-quantized
  // value NaN); saturate it at the largest finite threshold instead.
  float scale = tau > 0.0f ? qmax / std::min(tau, std::numeric_limits<float>::max()) : 1.0f;
  // Sub-normal tau (e.g. a tensor whose only non-zero is ~1e-40) overflows
  // qmax/tau to +inf, whose inverse is 0 and whose products are NaN. Treat it
  // like the all-zero case: scale 1 quantizes the (negligible) values to 0.
  if (!std::isfinite(scale)) scale = 1.0f;
  return from_scale(scale);
}

QuantParams QuantParams::from_scale(float scale) {
  QuantParams p;
  p.scale = scale;
  p.inv_scale = 1.0f / scale;
  return p;
}

float abs_max(std::span<const float> values) {
  float m = 0.0f;
  for (float v : values) m = std::max(m, std::abs(v));
  return m;
}

void quantize_i8(std::span<const float> src, float scale, std::span<std::int8_t> dst) {
  assert(dst.size() >= src.size());
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = saturate_cast_i8(src[i] * scale);
}

void quantize_u8_shift128(std::span<const float> src, float scale,
                          std::span<std::uint8_t> dst) {
  assert(dst.size() >= src.size());
  const std::size_t n = src.size();
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_avx512_kernels()) {
    std::size_t i = 0;
    const __m512 s = _mm512_set1_ps(scale);
    const auto lanes = [&](std::size_t at) {
      return quantize_i32x16(_mm512_mul_ps(_mm512_loadu_ps(src.data() + at), s), 0xFFFF);
    };
    for (; i + 64 <= n; i += 64) {
      _mm512_storeu_si512(dst.data() + i,
                          pack_u8x64(lanes(i), lanes(i + 16), lanes(i + 32), lanes(i + 48)));
    }
    const __m512i k128 = _mm512_set1_epi32(128);
    for (; i < n; i += 16) {
      const std::size_t m = std::min<std::size_t>(16, n - i);
      const auto tail = static_cast<__mmask16>((1u << m) - 1);
      const __m512 x = _mm512_mul_ps(_mm512_maskz_loadu_ps(tail, src.data() + i), s);
      _mm512_mask_cvtepi32_storeu_epi8(dst.data() + i, tail,
                                       _mm512_add_epi32(quantize_i32x16(x, tail), k128));
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) dst[i] = quantize_u8_shift128_scaled(src[i] * scale);
}

void dequantize_i32(std::span<const std::int32_t> src, float inv_scale, std::span<float> dst) {
  assert(dst.size() >= src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<float>(src[i]) * inv_scale;
  }
}

void dequantize_u8_shift128(std::span<const std::uint8_t> src, float inv_scale,
                            std::span<float> dst) {
  assert(dst.size() >= src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<float>(static_cast<std::int32_t>(src[i]) - 128) * inv_scale;
  }
}

QuantError quantization_error(std::span<const float> reference, std::span<const float> actual) {
  assert(reference.size() == actual.size());
  QuantError e;
  double signal = 0.0, noise = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double d = static_cast<double>(reference[i]) - static_cast<double>(actual[i]);
    noise += d * d;
    signal += static_cast<double>(reference[i]) * static_cast<double>(reference[i]);
    e.max_abs = std::max(e.max_abs, std::abs(d));
  }
  const double n = reference.empty() ? 1.0 : static_cast<double>(reference.size());
  e.mse = noise / n;
  e.signal_to_noise_db =
      noise > 0.0 ? 10.0 * std::log10(signal / noise) : 300.0;  // 300 dB ~ exact
  return e;
}

}  // namespace lowino
