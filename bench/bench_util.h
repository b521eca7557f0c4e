// Shared helpers for the benchmark executables.
//
// Environment knobs (all benches):
//   LOWINO_BENCH_BATCH  — batch override for Table 2's batch-64 rows
//                         (default 16; set 64 for paper-faithful runs)
//   LOWINO_NUM_THREADS  — thread pool size (default: hardware concurrency)
//   LOWINO_BENCH_BUDGET_MS — milliseconds of measurement per (layer, engine)
//                            cell (default 300)
#pragma once

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "common/timer.h"
#include "tensor/conv_desc.h"

namespace lowino::bench {

inline std::size_t batch_override() {
  return static_cast<std::size_t>(env_long("LOWINO_BENCH_BATCH", 16));
}

inline double cell_budget_seconds() {
  return static_cast<double>(env_long("LOWINO_BENCH_BUDGET_MS", 300)) / 1000.0;
}

/// Median seconds of fn() under the shared measurement protocol: 1 warmup,
/// then measured reps until the cell budget is spent (at least 2).
template <typename Fn>
double measure(Fn&& fn) {
  return time_it(fn, /*warmup=*/1, /*min_iters=*/2,
                 /*max_iters=*/std::numeric_limits<int>::max(), cell_budget_seconds())
      .median;
}

/// Random FP32 problem data for one layer.
struct LayerData {
  std::vector<float> input, weights, bias;
};

inline LayerData make_layer_data(const ConvDesc& desc, std::uint64_t seed) {
  LayerData d;
  Rng rng(seed);
  d.input.resize(desc.batch * desc.in_channels * desc.height * desc.width);
  d.weights.resize(desc.out_channels * desc.group_in_channels() * desc.kernel * desc.kernel);
  d.bias.resize(desc.out_channels);
  for (auto& v : d.input) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : d.weights) v = rng.normal() * 0.08f;
  for (auto& v : d.bias) v = rng.uniform(-0.1f, 0.1f);
  return d;
}

/// GFLOPS of the direct algorithm at the measured time (2 ops per MAC).
inline double direct_gflops(const ConvDesc& desc, double seconds) {
  return 2.0 * desc.direct_macs() / seconds / 1e9;
}

inline void print_rule(int width = 118) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace lowino::bench
