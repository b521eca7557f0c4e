// Measured auto-tuning of the GEMM blocking parameters (Section 4.3.4).
//
// The tuner times the batched INT8 GEMM of a concrete layer/tile-size pair
// for every candidate blocking (random operand data — timing does not depend
// on values); callers record the winning blocking in a wisdom store under
// wisdom_key(). Tuning happens ahead of time. The execution mode is not
// tuned: LoWinoConvolution::resolve_execution_mode picks staged or fused from
// the workspace size.
#pragma once

#include <cstddef>
#include <string>

#include "gemm/int8_gemm.h"
#include "tensor/conv_desc.h"
#include "tuning/wisdom.h"

namespace lowino {

class ThreadPool;

struct TuneOptions {
  double seconds_per_candidate = 0.05;  ///< measurement budget per candidate
  int min_reps = 2;
  std::size_t max_candidates = 0;  ///< 0 = no limit
};

struct TuneResult {
  Int8GemmBlocking best;
  double best_seconds = 0.0;
  double default_seconds = 0.0;  ///< time of the default blocking
  std::size_t evaluated = 0;
};

/// Tunes the batched GEMM of F(m x m, r x r) on `desc`. Deterministic given
/// machine state; wall-clock measured.
TuneResult tune_layer(const ConvDesc& desc, std::size_t m, ThreadPool* pool = nullptr,
                      const TuneOptions& options = {});

/// Wisdom key for a (layer, tile size) pair.
std::string wisdom_key(const ConvDesc& desc, std::size_t m);

}  // namespace lowino
