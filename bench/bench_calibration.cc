// KL-calibration microbenchmark (google-benchmark): the per-histogram cost
// of calibrate_kl's prefix-sum threshold sweep against the O(bins^2)
// reference sweep it replaced (testing/kl_oracle.h), on 2048-bin histograms
// shaped like the Winograd-domain activations LoWino calibrates per tap.
//
//   build/bench/bench_calibration
//
// Arguments: /0 = Gaussian, /1 = heavy-tailed (Gaussian with a log-normal
// scale mixture plus rare large outliers).
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "quant/calibration.h"
#include "quant/histogram.h"
#include "testing/kl_oracle.h"

namespace lowino {
namespace {

Histogram bench_histogram(bool heavy_tailed) {
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

void BM_CalibrateKl(benchmark::State& state) {
  const Histogram h = bench_histogram(state.range(0) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(calibrate_kl(h));
}
BENCHMARK(BM_CalibrateKl)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CalibrateKlOracle(benchmark::State& state) {
  const Histogram h = bench_histogram(state.range(0) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(testing::calibrate_kl_reference(h));
}
BENCHMARK(BM_CalibrateKlOracle)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lowino

BENCHMARK_MAIN();
