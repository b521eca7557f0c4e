// KL-calibration microbenchmark (google-benchmark): the per-histogram cost
// of calibrate_kl's tabulated threshold sweep against the O(bins^2)
// reference sweep (testing/kl_oracle.h), on 2048-bin histograms shaped like
// the Winograd-domain activations LoWino calibrates per tap.
//
//   build/bench/bench_calibration
//
// Arguments: /0 = Gaussian, /1 = heavy-tailed (Gaussian with a log-normal
// scale mixture plus rare large outliers), /2 = a real F(4x4) tap histogram:
// tap (1, 1) of a 64 -> 64 channel 3x3 conv at 32x32, batch 4 (a MiniResNet
// conv), calibrated on one seeded batch of ReLU activations.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "lowino/convolution.h"
#include "quant/calibration.h"
#include "quant/histogram.h"
#include "testing/kl_oracle.h"

namespace lowino {
namespace {

Histogram synthetic_histogram(bool heavy_tailed) {
  Rng rng(heavy_tailed ? 2 : 1);
  std::vector<float> batch(1 << 16);
  Histogram h(Histogram::kDefaultBins);
  for (int rep = 0; rep < 8; ++rep) {
    for (auto& v : batch) {
      v = rng.normal();
      if (heavy_tailed) v *= std::exp(rng.normal());
    }
    if (heavy_tailed) batch[rep] = 200.0f;
    h.collect(batch);
  }
  return h;
}

Histogram tap_histogram() {
  ConvDesc desc;
  desc.batch = 4;
  desc.in_channels = desc.out_channels = 64;
  desc.height = desc.width = 32;
  LoWinoConfig config;
  config.m = 4;
  LoWinoConvolution conv(desc, config);
  Rng rng(3);
  std::vector<float> input(desc.batch * desc.in_channels * desc.height * desc.width);
  for (auto& v : input) v = std::max(rng.normal(), 0.0f);
  conv.calibrate(input);
  return conv.calibrator().histogram(7);  // row 1, column 1 of the 6x6 tile
}

Histogram bench_histogram(std::int64_t kind) {
  return kind == 2 ? tap_histogram() : synthetic_histogram(kind != 0);
}

void BM_CalibrateKl(benchmark::State& state) {
  const Histogram h = bench_histogram(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(calibrate_kl(h));
}
BENCHMARK(BM_CalibrateKl)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_CalibrateKlOracle(benchmark::State& state) {
  const Histogram h = bench_histogram(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(testing::calibrate_kl_reference(h));
}
BENCHMARK(BM_CalibrateKlOracle)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lowino

BENCHMARK_MAIN();
