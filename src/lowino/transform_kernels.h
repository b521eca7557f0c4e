// Vectorized building blocks of the transform stages.
//
// The transforms operate on 16-lane channel groups (sigma = 16): a codelet
// plan (winograd/codelet_plan.h) is executed with every slot being one
// 16-float vector, then the results are quantized/de-quantized and moved with
// full-cache-line (non-temporal) stores. All functions have scalar fallbacks
// and are exact matches of the scalar quantization semantics, so tests can
// compare paths bit to bit.
#pragma once

#include <cstdint>

#include "winograd/codelet_plan.h"

namespace lowino {

/// Executes `plan` with 16-lane vectors: for output row i,
///   out[i * out_stride + l] = sum_j M[i][j] * in[j * in_stride + l], l in [0,16).
/// Strides are in floats. `in` and `out` must not alias.
void apply_plan_16(const CodeletPlan& plan, const float* in, std::size_t in_stride,
                   float* out, std::size_t out_stride);

/// Hand-scheduled AVX-512 codelets for the canonical transforms (the paper's
/// generated-codelet fast path; Section 4.2.4). Return false when the (m, r)
/// pair has no specialization or the CPU lacks AVX-512 — callers then fall
/// back to apply_plan_16. Semantics identical to applying the canonical
/// B^T / A^T matrix, with FMA contraction.
bool apply_bt_16(std::size_t m, std::size_t r, const float* in, std::size_t in_stride,
                 float* out, std::size_t out_stride);
bool apply_at_16(std::size_t m, std::size_t r, const float* in, std::size_t in_stride,
                 float* out, std::size_t out_stride);

/// Quantizes 16 floats to uint8 with the +128 compensation shift:
///   dst[l] = quantize_u8_shift128_scaled(src[l] * scale)
/// (common/saturate.h): round to nearest even, +128, saturated to [0, 255];
/// NaN encodes as 128 and +-Inf saturate (DESIGN.md decision 13).
void quantize16_u8(const float* src, float scale, std::uint8_t* dst);

/// De-quantizes 16 int32 lanes with per-lane reciprocal scales:
///   dst[l] = float(src[l]) * dequant[l].
void dequant16(const std::int32_t* src, const float* dequant, float* dst);

/// Streams one 64-byte line from `src` (aligned) to `dst` (aligned) with a
/// non-temporal store when available; plain copy otherwise.
void stream_store_64(void* dst, const void* src, bool non_temporal);

/// Orders outstanding non-temporal stores (call once per thread per stage).
void stream_fence();

}  // namespace lowino
