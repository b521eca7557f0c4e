// Configuration of the LoWino convolution engine.
#pragma once

#include <cstddef>

#include "gemm/int8_gemm.h"

namespace lowino {

/// Granularity of the Winograd-domain input quantization scales.
enum class ScaleGranularity {
  kPerTensor,    ///< one scale for the whole transformed-input tensor
  kPerPosition,  ///< one scale per tile position t in [0, T) — the default.
};

/// How the three pipeline stages are executed (Section 4.3 vs the fused
/// streaming alternative).
enum class ExecutionMode {
  /// Three fork-join regions with the full transformed tensors V and Z
  /// materialized in between (the paper's staged pipeline). Also the
  /// differential-testing oracle.
  kStaged,
  /// One fork-join region: each worker transforms, multiplies and
  /// output-transforms its n-block slice with L2-resident per-thread panels.
  /// Bit-identical results; workspace independent of the total tile count.
  kFused,
  /// Staged for small layers (intermediates fit in cache anyway), fused once
  /// the staged V+Z workspace exceeds num_threads x L2 size.
  kAuto,
};

inline const char* execution_mode_name(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kStaged: return "staged";
    case ExecutionMode::kFused: return "fused";
    case ExecutionMode::kAuto: return "auto";
  }
  return "?";
}

/// LoWino engine configuration. The paper's headline configurations are
/// m = 2 (F(2x2,3x3)) and m = 4 (F(4x4,3x3)); the generic transform path
/// supports any m with m + r - 1 <= 10.
struct LoWinoConfig {
  std::size_t m = 4;  ///< output tile size of F(m x m, r x r)

  /// Winograd-domain input scale granularity. Per-position is exact w.r.t.
  /// Eq. 3 (de-quantization precedes the output transform) and markedly more
  /// accurate because each tile position has a different value distribution.
  ScaleGranularity input_scales = ScaleGranularity::kPerPosition;

  /// Per-output-channel filter scales (computed exactly offline). Composes
  /// with per-position scales into the (t, k) de-quantization table.
  bool per_channel_filter_scales = true;

  /// GEMM blocking; tune via src/tuning or keep defaults.
  Int8GemmBlocking blocking;

  /// Hand-scheduled AVX-512 transform codelets for the canonical
  /// F(2x2,3x3)/F(4x4,3x3) matrices (Section 4.2.4). Disable to force the
  /// generic codelet-plan interpreter (ablation A1f).
  bool use_hand_codelets = true;

  /// Staged pipeline vs fused streaming execution (see ExecutionMode).
  ExecutionMode execution_mode = ExecutionMode::kAuto;
};

}  // namespace lowino
