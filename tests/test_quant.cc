// Tests for linear quantization, histograms and KL calibration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "common/saturate.h"
#include "lowino/convolution.h"
#include "lowino/transform_kernels.h"
#include "quant/calibration.h"
#include "quant/histogram.h"
#include "quant/quantize.h"
#include "testing/kl_oracle.h"

namespace lowino {
namespace {

TEST(QuantParams, FromThreshold) {
  const QuantParams p = QuantParams::from_threshold(2.0f);
  EXPECT_FLOAT_EQ(p.scale, 63.5f);
  EXPECT_FLOAT_EQ(p.inv_scale, 1.0f / 63.5f);
}

TEST(QuantParams, ZeroThresholdIsSafe) {
  const QuantParams p = QuantParams::from_threshold(0.0f);
  EXPECT_FLOAT_EQ(p.scale, 1.0f);
}

TEST(Quantize, RoundTripWithinHalfStep) {
  Rng rng(3);
  const QuantParams p = QuantParams::from_threshold(1.0f);
  std::vector<float> src(1000);
  for (auto& v : src) v = rng.uniform(-1.0f, 1.0f);
  std::vector<std::int8_t> q(src.size());
  quantize_i8(src, p.scale, q);
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float back = static_cast<float>(q[i]) * p.inv_scale;
    EXPECT_LE(std::abs(back - src[i]), 0.5f * p.inv_scale + 1e-6f);
  }
}

TEST(Quantize, SaturatesBeyondThreshold) {
  const QuantParams p = QuantParams::from_threshold(1.0f);
  std::vector<float> src = {10.0f, -10.0f};
  std::vector<std::int8_t> q(2);
  quantize_i8(src, p.scale, q);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -128);
}

TEST(Quantize, U8Shift128MatchesSignedPlus128) {
  Rng rng(4);
  const float scale = 50.0f;
  std::vector<float> src(500);
  for (auto& v : src) v = rng.uniform(-2.0f, 2.0f);
  std::vector<std::int8_t> q(500);
  std::vector<std::uint8_t> u(500);
  quantize_i8(src, scale, q);
  quantize_u8_shift128(src, scale, u);
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(static_cast<int>(u[i]), static_cast<int>(q[i]) + 128);
  }
}

TEST(Quantize, U8OffsetOrderingMatchesExactOracle) {
  // The zero-point audit behind the u8 hand-off: the +128 shift must happen
  // in the *integer* domain after round-to-nearest-even, and the two clamp
  // orderings must agree for every rounded value r:
  //   clamp(r, -128, 127) + 128 == clamp(r + 128, 0, 255).
  // A power-of-two scale makes every product below exact, so the sweep hits
  // the tie cases (x.5) and both saturation boundaries with a double-free
  // exact oracle (nearbyintf under the default FE_TONEAREST mode is RNE).
  const float scale = 16.0f;
  std::vector<float> src;
  for (int r = -140; r <= 140; ++r) {
    for (const float frac : {0.0f, -0.5f, 0.5f, -0.25f, 0.25f}) {
      src.push_back((static_cast<float>(r) + frac) / scale);
    }
  }
  std::vector<std::uint8_t> u(src.size());
  quantize_u8_shift128(src, scale, u);
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float prod = src[i] * scale;  // exact by construction
    const int r = static_cast<int>(std::nearbyintf(prod));
    const int signed_then_shift = std::clamp(r, -128, 127) + 128;
    const int shift_then_clamp = std::clamp(r + 128, 0, 255);
    ASSERT_EQ(signed_then_shift, shift_then_clamp) << "orderings diverge at r=" << r;
    ASSERT_EQ(static_cast<int>(u[i]), shift_then_clamp) << "value " << src[i];
  }
}

TEST(Quantize, U8DoubleQuantizationIsIdempotent) {
  // Requantizing an already-quantized tensor with the same scale must be the
  // identity for every byte value — the serving hand-off depends on it (one
  // QuantParams is shared along a whole u8 segment, e.g. across a relu or
  // maxpool passthrough).
  Rng rng(21);
  std::vector<std::uint8_t> q(256);
  for (int i = 0; i < 256; ++i) q[i] = static_cast<std::uint8_t>(i);
  for (int rep = 0; rep < 50; ++rep) {
    const QuantParams p = QuantParams::from_threshold(rng.uniform(1e-3f, 100.0f));
    std::vector<float> deq(256);
    dequantize_u8_shift128(q, p.inv_scale, deq);
    std::vector<std::uint8_t> q2(256);
    quantize_u8_shift128(deq, p.scale, q2);
    ASSERT_EQ(q, q2) << "scale " << p.scale;
  }
}

TEST(Quantize, PaddingByteDequantizesToExactZero) {
  // 128 is the quantized zero: every pad byte the engines inject (im2col
  // borders, blocked-layout channel padding) must dequantize to exactly 0.0f
  // at any scale, or padding would leak signal into the accumulators.
  const std::vector<std::uint8_t> pad = {128};
  std::vector<float> out(1);
  for (const float scale : {0.03125f, 1.0f, 63.5f, 12345.0f}) {
    dequantize_u8_shift128(pad, 1.0f / scale, out);
    EXPECT_EQ(out[0], 0.0f) << "scale " << scale;
  }
}

TEST(Quantize, U8NonFiniteContract) {
  // The encoding where a request's pixels first become bytes: NaN is quantized
  // zero (128), +-Inf and every magnitude past the range saturate — including
  // scaled values beyond int32, whose conversion would be undefined.
  const float inf = std::numeric_limits<float>::infinity();
  const float big = std::numeric_limits<float>::max();
  const std::vector<float> src = {std::numeric_limits<float>::quiet_NaN(), inf, -inf, big, -big,
                                  3e9f, -3e9f, 127.4f, -128.4f, 0.0f};
  const std::vector<std::uint8_t> want = {128, 255, 0, 255, 0, 255, 0, 255, 0, 128};
  std::vector<std::uint8_t> q(src.size());
  quantize_u8_shift128(src, 1.0f, q);
  EXPECT_EQ(q, want);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(quantize_u8_shift128_scaled(src[i]), want[i]) << src[i];
  }
  std::vector<float> src16(src);
  src16.resize(16, 0.0f);
  std::uint8_t q16[16];
  quantize16_u8(src16.data(), 1.0f, q16);
  EXPECT_EQ(std::vector<std::uint8_t>(q16, q16 + src.size()), want) << "quantize16_u8";

  // The vector body against the scalar helper, element by element, on every
  // prefix length of a 200-value sweep (so each value passes through whole
  // 64-value rows, 16-value groups and odd tails): round-half-even ties at
  // +-0.5 and +-127.5, the range edges, denormals and the non-finite values.
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> sweep = {0.5f,   -0.5f,   1.5f,    -1.5f,  2.5f,   -2.5f,   126.5f,
                              127.5f, -127.5f, -128.5f, 127.0f, -128.0f, 128.0f, -129.0f,
                              -0.0f,  denorm,  -denorm, 1e-38f, -1e-38f, big,   -big,
                              inf,    -inf,    std::numeric_limits<float>::quiet_NaN()};
  Rng rng(5);
  while (sweep.size() < 200) sweep.push_back(rng.uniform(-300.0f, 300.0f));
  for (const float scale : {1.0f, 0.5f, 3.0f}) {
    for (std::size_t n = 0; n <= sweep.size(); ++n) {
      const std::span<const float> head(sweep.data(), n);
      std::vector<std::uint8_t> got(n + 1, 0xAB);
      quantize_u8_shift128(head, scale, got);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], quantize_u8_shift128_scaled(sweep[i] * scale))
            << "n=" << n << " i=" << i << " x=" << sweep[i] << " scale=" << scale;
      }
      ASSERT_EQ(got[n], 0xAB) << "n=" << n;  // nothing past the end
    }
    // LoWino's Winograd-domain byte store (input quantization and output
    // requant) keeps the same contract, 16 values at a time.
    for (std::size_t at = 0; at + 16 <= sweep.size(); at += 8) {
      std::uint8_t got16[16];
      quantize16_u8(sweep.data() + at, scale, got16);
      for (std::size_t l = 0; l < 16; ++l) {
        ASSERT_EQ(got16[l], quantize_u8_shift128_scaled(sweep[at + l] * scale))
            << "quantize16_u8 at=" << at << " x=" << sweep[at + l] << " scale=" << scale;
      }
    }
  }
}

TEST(Dequantize, Scales) {
  std::vector<std::int32_t> src = {100, -50, 0};
  std::vector<float> dst(3);
  dequantize_i32(src, 0.5f, dst);
  EXPECT_FLOAT_EQ(dst[0], 50.0f);
  EXPECT_FLOAT_EQ(dst[1], -25.0f);
  EXPECT_FLOAT_EQ(dst[2], 0.0f);
}

TEST(QuantError, ExactSignalsHighSnr) {
  std::vector<float> a = {1.0f, 2.0f, 3.0f};
  const QuantError e = quantization_error(a, a);
  EXPECT_EQ(e.mse, 0.0);
  EXPECT_GE(e.signal_to_noise_db, 200.0);
}

TEST(QuantError, KnownMse) {
  std::vector<float> ref = {0.0f, 0.0f}, act = {1.0f, -1.0f};
  const QuantError e = quantization_error(ref, act);
  EXPECT_DOUBLE_EQ(e.mse, 1.0);
  EXPECT_DOUBLE_EQ(e.max_abs, 1.0);
}

TEST(Histogram, CountsAndRange) {
  Histogram h(64);
  std::vector<float> first = {1.0f, -1.0f, 0.5f};
  h.collect(first);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_FLOAT_EQ(h.bin_width(), 1.25f / 64.0f);
  EXPECT_FLOAT_EQ(h.max_abs_seen(), 1.0f);
}

TEST(Histogram, AllZeroFirstBatchDefersRange) {
  Histogram h(64);
  std::vector<float> zeros(10, 0.0f);
  h.collect(zeros);
  EXPECT_TRUE(h.empty());
  std::vector<float> real = {2.0f};
  h.collect(real);
  EXPECT_FALSE(h.empty());
  EXPECT_FLOAT_EQ(h.bin_width(), 2.5f / 64.0f);
}

TEST(Histogram, RangeExpandsForLaterBatches) {
  Histogram h(16);
  std::vector<float> first = {1.0f};
  h.collect(first);
  const float w0 = h.bin_width();
  std::vector<float> huge = {100.0f};
  h.collect(huge);
  EXPECT_GT(h.bin_width(), w0);                          // bins merged
  EXPECT_LT(100.0f, h.bin_width() * 16.0f);              // new value in range
  EXPECT_EQ(h.total(), 2u);
  EXPECT_FLOAT_EQ(h.max_abs_seen(), 100.0f);
}

TEST(Histogram, OddBinCountKeepsTopBinOnGrowth) {
  // Doubling the width merges bins pairwise; with an odd bin count the top
  // bin has no partner and used to be dropped, so the counts no longer
  // summed to total().
  Histogram h(7);
  h.collect(std::vector<float>{0.1f, 1.0f});        // range [0, 1.25)
  h.collect(std::vector<float>{1.2f, 1.2f});        // bin 6, no growth
  ASSERT_EQ(h.count(6), 2u);
  h.collect(std::vector<float>{2.0f});
  std::uint64_t sum = 0;
  for (const std::uint64_t c : h.counts()) sum += c;
  EXPECT_EQ(sum, h.total());
  EXPECT_EQ(h.count(3), 2u);  // [6w, 7w) lies in the merged bin [6w, 8w)
}

TEST(Histogram, BatchingOrderIndependent) {
  // Same data in different batch splits must produce the same histogram.
  Rng rng(123);
  std::vector<float> data(4096);
  for (auto& v : data) v = rng.normal();
  std::sort(data.begin(), data.end());  // worst case: small values first
  Histogram one_shot, batched;
  one_shot.collect(data);
  for (std::size_t i = 0; i < data.size(); i += 16) {
    batched.collect(std::span<const float>(data).subspan(i, 16));
  }
  // Bin boundaries differ after expansion, so KL picks slightly different
  // thresholds; they must agree to within a factor of two (without the
  // expansion fix the batched threshold collapses to the first batch's max,
  // an order of magnitude off).
  const float tau_a = calibrate_kl(one_shot).tau;
  const float tau_b = calibrate_kl(batched).tau;
  EXPECT_LT(std::max(tau_a, tau_b) / std::min(tau_a, tau_b), 2.0f);
}

TEST(KlDivergence, ZeroForIdenticalDistributions) {
  std::vector<double> p = {1, 2, 3, 4};
  EXPECT_NEAR(testing::kl_divergence(p, p), 0.0, 1e-12);
}

TEST(KlDivergence, PositiveForDifferent) {
  std::vector<double> p = {10, 1, 1, 1};
  std::vector<double> q = {1, 1, 1, 10};
  EXPECT_GT(testing::kl_divergence(p, q), 0.1);
}

TEST(Calibration, GaussianClipsOutliers) {
  // For a heavy-tailed distribution, the KL threshold should be well below
  // the max-abs value (that is the whole point of calibration).
  Rng rng(9);
  Histogram h;
  std::vector<float> batch(4096);
  for (int rep = 0; rep < 8; ++rep) {
    for (auto& v : batch) v = rng.normal();
    batch[0] = 40.0f;  // inject rare outliers
    h.collect(batch);
  }
  const CalibrationResult r = calibrate_kl(h);
  EXPECT_GT(r.tau, 1.0f);
  EXPECT_LT(r.tau, 0.5f * h.max_abs_seen());
}

TEST(Calibration, UniformKeepsNearlyFullRange) {
  Rng rng(10);
  Histogram h;
  std::vector<float> batch(65536);
  for (auto& v : batch) v = rng.uniform(-1.0f, 1.0f);
  h.collect(batch);
  const CalibrationResult r = calibrate_kl(h);
  // Uniform data has no outliers; threshold should keep most of the range.
  EXPECT_GT(r.tau, 0.8f);
}

TEST(Calibration, EmptyHistogramFallsBack) {
  Histogram h;
  const CalibrationResult r = calibrate_kl(h);
  EXPECT_EQ(r.tau, 0.0f);
  const QuantParams p = calibrate_params(h);
  EXPECT_FLOAT_EQ(p.scale, 1.0f);
}

TEST(Calibration, FewBinsShortCircuits) {
  Histogram h(64);  // fewer bins than quant levels
  std::vector<float> batch = {1.0f, 0.5f, 0.2f};
  h.collect(batch);
  const CalibrationResult r = calibrate_kl(h, 128);
  EXPECT_FLOAT_EQ(r.tau, h.edge(63));
}

TEST(Calibration, RejectsLevelCountsOutsideTheExactBoundaryRange) {
  // Zero levels, and 40000 bins x 32768^2 levels (past 2^40, where the
  // sweep's integer level boundaries would no longer be exact).
  Histogram h(40000);
  std::vector<float> batch = {1.0f, 0.5f, 0.2f};
  h.collect(batch);
  EXPECT_THROW(calibrate_kl(h, 0), std::invalid_argument);
  EXPECT_THROW(calibrate_kl(h, 32768), std::invalid_argument);
}

TEST(Calibration, AllZeroInputsYieldIdentityScaleAndQuantizedZero) {
  // Degenerate calibration input: a layer that only ever saw zeros. The
  // histogram defers its range forever, calibrate_params falls back to
  // scale 1, and the whole tensor quantizes to the zero byte (128).
  Histogram h;
  const std::vector<float> zeros(1024, 0.0f);
  for (int i = 0; i < 4; ++i) h.collect(zeros);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(calibrate_kl(h).tau, 0.0f);
  const QuantParams p = calibrate_params(h);
  ASSERT_TRUE(std::isfinite(p.scale));
  ASSERT_TRUE(std::isfinite(p.inv_scale));
  std::vector<std::uint8_t> q(zeros.size());
  quantize_u8_shift128(zeros, p.scale, q);
  for (const std::uint8_t b : q) ASSERT_EQ(b, 128);
}

TEST(Calibration, SingleRepeatedValueSurvivesRoundTrip) {
  // A single-value distribution collapses the histogram to one occupied bin;
  // the calibrated scale must stay finite and keep that value within half a
  // quantization step.
  Histogram h;
  const std::vector<float> batch(512, 0.75f);
  h.collect(batch);
  const QuantParams p = calibrate_params(h);
  ASSERT_TRUE(std::isfinite(p.scale));
  ASSERT_GT(p.scale, 0.0f);
  std::vector<std::uint8_t> q(batch.size());
  quantize_u8_shift128(batch, p.scale, q);
  std::vector<float> back(batch.size());
  dequantize_u8_shift128(q, p.inv_scale, back);
  for (const float v : back) ASSERT_NEAR(v, 0.75f, 0.5f * p.inv_scale + 1e-6f);
}

TEST(Calibration, DenormalOnlyInputsYieldFiniteParams) {
  // A tensor whose only non-zeros are sub-normal used to produce a zero
  // histogram bin width (infinite bin indices) and an infinite scale whose
  // inverse is 0 — every product downstream became NaN. The bin width is now
  // floored at the smallest normal float and from_threshold guards the
  // overflow, so the values quantize to 128 (zero) harmlessly.
  Histogram h;
  const std::vector<float> tiny(256, 1e-42f);
  h.collect(tiny);
  EXPECT_TRUE(std::isfinite(h.bin_width()));
  EXPECT_GT(h.bin_width(), 0.0f);
  const CalibrationResult r = calibrate_kl(h);
  EXPECT_TRUE(std::isfinite(r.tau));
  const QuantParams p = QuantParams::from_threshold(r.tau);
  ASSERT_TRUE(std::isfinite(p.scale));
  ASSERT_TRUE(std::isfinite(p.inv_scale));
  std::vector<std::uint8_t> q(tiny.size());
  quantize_u8_shift128(tiny, p.scale, q);
  std::vector<float> back(tiny.size());
  dequantize_u8_shift128(q, p.inv_scale, back);
  for (const float v : back) ASSERT_TRUE(std::isfinite(v));
}

TEST(Calibration, CalibratedScaleBeatsMaxAbsOnDistributionBody) {
  // Property behind Eq. 7: with rare extreme outliers, max-abs scaling wastes
  // nearly the whole INT8 range, so the distribution *body* (where all the
  // information lives) is represented far more coarsely than with the
  // KL-calibrated threshold. (Total MSE is the wrong metric here — it is
  // dominated by the clipped outliers, which is exactly why the paper uses KL
  // rather than MSE.)
  Rng rng(11);
  std::vector<float> data(32768);
  for (auto& v : data) v = rng.normal();
  data[7] = 80.0f;
  data[12345] = -95.0f;

  Histogram h;
  h.collect(data);
  const QuantParams calibrated = calibrate_params(h);
  const QuantParams maxabs = QuantParams::from_threshold(abs_max(data));
  EXPECT_GT(calibrated.scale, maxabs.scale);  // calibration clips the outliers

  auto body_mse = [&](const QuantParams& p) {
    double mse = 0.0;
    std::size_t n = 0;
    for (float v : data) {
      if (std::abs(v) > 5.0f) continue;  // inliers only
      std::vector<float> one = {v};
      std::vector<std::int8_t> q(1);
      quantize_i8(one, p.scale, q);
      const double back = static_cast<double>(q[0]) * p.inv_scale;
      mse += (back - v) * (back - v);
      ++n;
    }
    return mse / static_cast<double>(n);
  };
  EXPECT_LT(body_mse(calibrated), 0.25 * body_mse(maxabs));
}

// --- Non-finite and saturating calibration inputs --------------------------

float tau_of(std::initializer_list<std::vector<float>> batches, std::size_t bins = 256) {
  Histogram h(bins);
  for (const auto& b : batches) h.collect(b);
  return calibrate_kl(h).tau;
}

TEST(Histogram, InfInFirstBatchIsIgnored) {
  // An Inf in the range-setting batch used to make the bin width infinite
  // and the range-growth loop spin forever.
  const float inf = std::numeric_limits<float>::infinity();
  Histogram h(256);
  h.collect(std::vector<float>{0.5f, inf, -2.0f, 1.0f, -inf});
  EXPECT_EQ(h.total(), 3u);
  EXPECT_FLOAT_EQ(h.max_abs_seen(), 2.0f);
  EXPECT_TRUE(std::isfinite(h.bin_width()));
  EXPECT_EQ(calibrate_kl(h).tau, tau_of({{0.5f, -2.0f, 1.0f}}));
}

TEST(Histogram, InfInLaterBatchIsIgnored) {
  const float inf = std::numeric_limits<float>::infinity();
  Histogram h(256);
  h.collect(std::vector<float>{0.5f, -2.0f});
  h.collect(std::vector<float>{1.0f, -inf, 3.0f});
  EXPECT_EQ(h.total(), 4u);
  EXPECT_FLOAT_EQ(h.max_abs_seen(), 3.0f);
  EXPECT_EQ(calibrate_kl(h).tau, tau_of({{0.5f, -2.0f}, {1.0f, 3.0f}}));
}

TEST(Histogram, NanIsIgnored) {
  // NaN used to reach static_cast<size_t>(NaN * inv_w), which is UB.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Histogram h(256);
  h.collect(std::vector<float>{nan, 0.25f, 1.0f});
  h.collect(std::vector<float>{-0.75f, nan});
  EXPECT_EQ(h.total(), 3u);
  EXPECT_FLOAT_EQ(h.max_abs_seen(), 1.0f);
  EXPECT_EQ(calibrate_kl(h).tau, tau_of({{0.25f, 1.0f}, {-0.75f}}));
}

TEST(Histogram, OnlyNonFiniteValuesDeferRange) {
  const float inf = std::numeric_limits<float>::infinity();
  Histogram h(64);
  h.collect(std::vector<float>{inf, std::numeric_limits<float>::quiet_NaN()});
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.bin_width(), 0.0f);
}

void expect_finite_range_and_params(const Histogram& h) {
  EXPECT_TRUE(std::isfinite(h.bin_width()));
  EXPECT_GT(h.bin_width(), 0.0f);
  EXPECT_TRUE(std::isfinite(h.edge(h.bins() - 1)));
  const QuantParams p = calibrate_params(h);
  EXPECT_TRUE(std::isfinite(p.scale));
  EXPECT_GT(p.scale, 0.0f);
  EXPECT_TRUE(std::isfinite(p.inv_scale));
  EXPECT_GT(p.inv_scale, 0.0f);
}

TEST(Histogram, NearFltMaxAloneKeepsRangeFinite) {
  // 1.25f * 3e38f overflows; the range must stop at the widest finite one.
  Histogram h;
  h.collect(std::vector<float>{3e38f});
  EXPECT_EQ(h.total(), 1u);
  expect_finite_range_and_params(h);
}

TEST(Histogram, NearFltMaxAfterNormalBatchKeepsRangeFinite) {
  Rng rng(17);
  std::vector<float> normal(4096);
  for (auto& v : normal) v = rng.normal();
  for (const std::size_t bins : {std::size_t{2048}, std::size_t{1000}}) {
    Histogram h(bins);
    h.collect(normal);
    h.collect(std::vector<float>{-3e38f, std::numeric_limits<float>::max()});
    EXPECT_EQ(h.total(), normal.size() + 2);
    EXPECT_EQ(h.max_abs_seen(), std::numeric_limits<float>::max());
    EXPECT_EQ(h.count(h.bins() - 1), 1u);  // FLT_MAX sits at the top edge
    expect_finite_range_and_params(h);
  }
}

TEST(QuantParams, HugeOrInfiniteThresholdIsFinite) {
  for (const float tau : {3e38f, std::numeric_limits<float>::max(),
                          std::numeric_limits<float>::infinity()}) {
    const QuantParams p = QuantParams::from_threshold(tau);
    EXPECT_TRUE(std::isfinite(p.scale)) << tau;
    EXPECT_GT(p.scale, 0.0f) << tau;
    EXPECT_TRUE(std::isfinite(p.inv_scale)) << tau;
    EXPECT_GT(p.inv_scale, 0.0f) << tau;
  }
  EXPECT_EQ(QuantParams::from_threshold(std::numeric_limits<float>::quiet_NaN()).scale, 1.0f);
}

// --- Prefix-sum sweep vs. the O(bins^2) oracle ------------------------------

/// One fuzzed calibration input: the batches collected into a histogram of
/// `bins` bins. Generated from a per-case seed, so a failure reproduces from
/// the printed seed alone.
struct HistCase {
  std::size_t bins = 0;
  const char* shape = "";
  std::vector<std::vector<float>> batches;

  /// Collects every batch `replicas` times in a row: the range never depends
  /// on the repeat, so every count is exactly `replicas` times the original.
  Histogram build(int replicas = 1) const {
    Histogram h(bins);
    for (const auto& b : batches) {
      for (int r = 0; r < replicas; ++r) h.collect(b);
    }
    return h;
  }
};

HistCase fuzz_histogram(std::uint64_t seed) {
  Rng rng(seed);
  HistCase c;
  do {
    c.bins = 300 + rng.next_below(3001);
  } while (c.bins % 128 == 0);
  const std::size_t n = 500 + rng.next_below(6000);
  const float sigma = std::exp(rng.uniform(-6.0f, 3.0f));
  std::vector<float> v(n);
  switch (seed % 6) {
    case 0:
      c.shape = "gaussian";
      for (auto& x : v) x = sigma * rng.normal();
      break;
    case 1:
      c.shape = "heavy-tailed";  // Gaussian with a log-normal scale mixture
      for (auto& x : v) x = sigma * rng.normal() * std::exp(1.5f * rng.normal());
      break;
    case 2: {
      c.shape = "spikes+outliers";
      std::vector<float> spikes(1 + rng.next_below(8));
      for (auto& s : spikes) s = sigma * rng.uniform(-1.0f, 1.0f);
      for (auto& x : v) x = spikes[rng.next_below(spikes.size())];
      const std::size_t outliers = 1 + rng.next_below(5);
      for (std::size_t k = 0; k < outliers; ++k) {
        v[rng.next_below(n)] = sigma * rng.uniform(10.0f, 100.0f);
      }
      break;
    }
    case 3: {
      c.shape = "two-spikes";  // two values, everything between them empty
      const float hi = sigma * rng.uniform(2.0f, 50.0f);
      const double p_lo = rng.next_double();
      for (auto& x : v) x = rng.next_double() < p_lo ? sigma : -hi;
      break;
    }
    case 4:
      c.shape = "one-bin";
      for (auto& x : v) x = rng.next_below(2) ? sigma : -sigma;
      break;
    default: {
      c.shape = "zero-inflated";
      const double zeros = rng.uniform(0.5f, 0.99f);
      for (auto& x : v) x = rng.next_double() < zeros ? 0.0f : std::abs(sigma * rng.normal());
      break;
    }
  }
  // Sorted input in several batches makes the range grow (bins merge), so
  // the top of the histogram is not always at 1 / 1.25 of its range.
  if (rng.next_below(2)) std::sort(v.begin(), v.end(), [](float a, float b) {
    return std::abs(a) < std::abs(b);
  });
  const std::size_t n_batches = 1 + rng.next_below(4);
  for (std::size_t b = 0; b < n_batches; ++b) {
    c.batches.emplace_back(v.begin() + static_cast<std::ptrdiff_t>(b * n / n_batches),
                           v.begin() + static_cast<std::ptrdiff_t>((b + 1) * n / n_batches));
  }
  return c;
}

std::uint64_t kl_fuzz_seed() {
  return static_cast<std::uint64_t>(env_long("LOWINO_TEST_SEED", 20261017));
}

/// Sweeps `h` with calibrate_kl and with the oracle and counts the outcome.
/// The sweep must pick the oracle's bin. The one tolerated difference is a
/// rounding tie: thresholds whose KL is equal in exact arithmetic, where the
/// oracle's own last-bit noise decides. There the smaller threshold must win
/// (the documented tie rule), and the oracle's KL at both bins must agree
/// within the 1e-12 tie margin. Ties are counted and printed.
void check_against_oracle(const Histogram& h, std::size_t levels, double coverage,
                          const std::string& where, std::size_t& ties,
                          std::size_t& mismatches) {
  const CalibrationResult got = calibrate_kl(h, levels, coverage);
  const CalibrationResult want = testing::calibrate_kl_reference(h, levels, coverage);
  if (got.bin != want.bin) {
    const double oracle_at_got = testing::kl_at_threshold(h, got.bin + 1, levels);
    const bool tie = got.bin < want.bin && oracle_at_got - want.kl <= 1e-12;
    ++(tie ? ties : mismatches);
    std::ostream& os = tie ? std::cout : std::cerr;
    os << std::setprecision(17) << (tie ? "rounding tie: " : "MISMATCH: ") << where
       << ": bin " << got.bin << " (kl " << got.kl << ", oracle kl " << oracle_at_got
       << ") vs oracle bin " << want.bin << " (kl " << want.kl << ")\n";
    return;
  }
  EXPECT_EQ(got.tau, want.tau) << where;
  EXPECT_NEAR(got.kl, want.kl, 1e-9 * std::max(1.0, want.kl)) << where;
}

TEST(KlSweep, MatchesOracleOnFuzzedCorpus) {
  // Every sweep must pick the oracle's bin, up to the rounding ties that
  // check_against_oracle allows.
  // LOWINO_KL_FUZZ_CASES sets the corpus size (each case runs four sweeps);
  // the tier-2 entry kl_sweep_tier2 runs 2000.
  const auto cases = static_cast<std::uint64_t>(env_long("LOWINO_KL_FUZZ_CASES", 250));
  const std::uint64_t base = kl_fuzz_seed();
  std::size_t mismatches = 0, ties = 0;
  for (std::uint64_t i = 0; i < cases; ++i) {
    const HistCase c = fuzz_histogram(base + i);
    const Histogram h = c.build();
    for (const double coverage : {0.999, 0.0}) {
      for (const std::size_t levels : {std::size_t{128}, std::size_t{255}}) {
        const std::string where = std::string(c.shape) + " seed " + std::to_string(base + i) +
                                  " bins " + std::to_string(c.bins) + " levels " +
                                  std::to_string(levels) + " coverage " +
                                  std::to_string(coverage);
        check_against_oracle(h, levels, coverage, where, ties, mismatches);
      }
    }
  }
  std::cout << cases * 4 << " sweeps: " << mismatches << " mismatches, " << ties
            << " rounding ties\n";
  EXPECT_EQ(mismatches, 0u);
}

TEST(KlSweep, MatchesOracleOnWinogradTapHistograms) {
  // The histograms a compile spends its calibration time on: one per tap of
  // F(2x2), F(4x4) and F(6x6) on a seeded MiniResNet-shaped conv (64 -> 64
  // channels at 32x32, ReLU input), swept with the production defaults. On
  // each, the sweep must pick the oracle's bin (same tie rule as the fuzzed
  // corpus), and calibrating on the batch three times must give a
  // bit-identical bin, tau and KL.
  ConvDesc desc;
  desc.batch = 2;
  desc.in_channels = desc.out_channels = 64;
  desc.height = desc.width = 32;
  Rng rng(kl_fuzz_seed());
  std::vector<float> input(desc.batch * desc.in_channels * desc.height * desc.width);
  for (auto& v : input) v = std::max(rng.normal(), 0.0f);
  std::size_t taps = 0, mismatches = 0, ties = 0;
  for (const std::size_t m : {std::size_t{2}, std::size_t{4}, std::size_t{6}}) {
    LoWinoConfig config;
    config.m = m;
    LoWinoConvolution once(desc, config), thrice(desc, config);
    once.calibrate(input);
    for (int r = 0; r < 3; ++r) thrice.calibrate(input);
    for (std::size_t t = 0; t < once.geometry().t_elems; ++t, ++taps) {
      const Histogram& h = once.calibrator().histogram(t);
      const Histogram& h3 = thrice.calibrator().histogram(t);
      const std::string where = "F(" + std::to_string(m) + "x" + std::to_string(m) + ") tap " +
                                std::to_string(t);
      ASSERT_EQ(h3.total(), 3 * h.total()) << where;
      check_against_oracle(h, 128, 0.999, where, ties, mismatches);
      const CalibrationResult a = calibrate_kl(h), b = calibrate_kl(h3);
      ASSERT_EQ(a.bin, b.bin) << where;
      ASSERT_EQ(a.tau, b.tau) << where;
      ASSERT_EQ(a.kl, b.kl) << where;
    }
  }
  std::cout << taps << " tap histograms: " << mismatches << " mismatches, " << ties
            << " rounding ties\n";
  EXPECT_EQ(taps, 16u + 36u + 64u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(KlSweep, BitIdenticalUnderCountScaling) {
  // Collecting the same data k times multiplies every count by k; the sweep
  // must return the same bin and the bit-identical KL (the replicated-image
  // calibration of the batched-server tests relies on it).
  const std::uint64_t base = kl_fuzz_seed() + 1000000;
  for (std::uint64_t i = 0; i < 120; ++i) {
    const HistCase c = fuzz_histogram(base + i);
    const Histogram one = c.build();
    for (const int k : {2, 3, 7}) {
      const Histogram scaled = c.build(k);
      ASSERT_EQ(scaled.total(), one.total() * static_cast<std::uint64_t>(k));
      for (const double coverage : {0.999, 0.0}) {
        const CalibrationResult a = calibrate_kl(one, 128, coverage);
        const CalibrationResult b = calibrate_kl(scaled, 128, coverage);
        ASSERT_EQ(a.bin, b.bin) << c.shape << " seed " << base + i << " x" << k;
        ASSERT_EQ(a.tau, b.tau) << c.shape << " seed " << base + i << " x" << k;
        ASSERT_EQ(a.kl, b.kl) << c.shape << " seed " << base + i << " x" << k;
      }
    }
  }
}

TEST(KlSweep, TwoSpikeTiePicksSmallestThreshold) {
  // Spikes at 0.1, 0.5 and 3.0 in 2048 bins: bins 54, 273 and 1638, each in
  // its own quantization level for every threshold that keeps them all. KL
  // is exactly 0 from threshold bin 1638 on, so the flat curve is a pure tie
  // that prefix-sum rounding must not break: the smallest threshold wins, as
  // the oracle's strict < picks it.
  Histogram h;
  std::vector<float> batch;
  for (int k = 0; k < 100; ++k) batch.push_back(0.1f);
  for (int k = 0; k < 300; ++k) batch.push_back(0.5f);
  for (int k = 0; k < 600; ++k) batch.push_back(-3.0f);
  h.collect(batch);
  ASSERT_EQ(h.count(54), 100u);
  ASSERT_EQ(h.count(273), 300u);
  ASSERT_EQ(h.count(1638), 600u);
  const CalibrationResult want = testing::calibrate_kl_reference(h, 128, 0.0);
  EXPECT_EQ(want.bin, 1638u);
  EXPECT_EQ(want.kl, 0.0);
  const CalibrationResult got = calibrate_kl(h, 128, 0.0);
  EXPECT_EQ(got.bin, 1638u);
  EXPECT_NEAR(got.kl, 0.0, 1e-12);  // prefix sums need not cancel exactly
  EXPECT_EQ(got.tau, h.edge(1638));
}

}  // namespace
}  // namespace lowino
