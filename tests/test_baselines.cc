// Tests for the baseline engines and the paper's accuracy-ordering claims:
// up-casting ~ accurate, down-scaling F(2,3) slightly lossy, down-scaling
// F(4,4) catastrophically lossy, LoWino accurate at both tile sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baselines/downscale_wino.h"
#include "baselines/fp32_wino.h"
#include "baselines/upcast_wino.h"
#include "baselines/vendor_wino.h"
#include "common/rng.h"
#include "direct/direct_f32.h"
#include "direct/direct_int8.h"
#include "lowino/lowino.h"
#include "profile/profiler.h"
#include "quant/quantize.h"

namespace lowino {
namespace {

ConvDesc make_desc(std::size_t b, std::size_t c, std::size_t k, std::size_t hw) {
  ConvDesc d;
  d.batch = b;
  d.in_channels = c;
  d.out_channels = k;
  d.height = d.width = hw;
  d.kernel = 3;
  d.pad = 1;
  return d;
}

struct Problem {
  std::vector<float> input, weights, bias, ref;
};

Problem make_problem(const ConvDesc& desc, unsigned seed) {
  Problem p;
  Rng rng(seed);
  p.input.resize(desc.batch * desc.in_channels * desc.height * desc.width);
  p.weights.resize(desc.out_channels * desc.in_channels * 9);
  p.bias.resize(desc.out_channels);
  for (auto& v : p.input) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : p.weights) v = rng.normal() * 0.1f;
  for (auto& v : p.bias) v = rng.uniform(-0.2f, 0.2f);
  p.ref.resize(desc.batch * desc.out_channels * desc.out_height() * desc.out_width());
  direct_conv_f32_reference(desc, p.input, p.weights, p.bias, p.ref);
  return p;
}

template <typename Engine>
double snr_of(Engine& engine, const Problem& p, ThreadPool* pool = nullptr) {
  std::vector<float> out(p.ref.size());
  engine.execute_nchw(p.input, out, pool);
  return quantization_error(p.ref, out).signal_to_noise_db;
}

// --- FP32 Winograd ----------------------------------------------------------
class Fp32WinoShapes : public ::testing::TestWithParam<int> {};

TEST_P(Fp32WinoShapes, MatchesReferenceClosely) {
  const int m = GetParam();
  const ConvDesc d = make_desc(1, 64, 64, 12);
  Problem p = make_problem(d, 50 + m);
  Fp32WinoConv conv(d, m);
  conv.set_filters(p.weights, p.bias);
  // FP32 Winograd only has transform round-off: tens of dB better than INT8.
  EXPECT_GT(snr_of(conv, p), 90.0) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(TileSizes, Fp32WinoShapes, ::testing::Values(2, 4, 6));

TEST(Fp32Wino, OddShapesAndChannels) {
  const ConvDesc d = make_desc(2, 100, 80, 9);
  Problem p = make_problem(d, 55);
  Fp32WinoConv conv(d, 4);
  conv.set_filters(p.weights, p.bias);
  EXPECT_GT(snr_of(conv, p), 90.0);
}

TEST(Fp32Wino, ParallelMatchesSerial) {
  ThreadPool pool(4);
  const ConvDesc d = make_desc(1, 64, 64, 10);
  Problem p = make_problem(d, 56);
  Fp32WinoConv conv(d, 4);
  conv.set_filters(p.weights, p.bias);
  std::vector<float> a(p.ref.size()), b(p.ref.size());
  conv.execute_nchw(p.input, a);
  conv.execute_nchw(p.input, b, &pool);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

// --- Up-casting (ncnn-style) -------------------------------------------------
TEST(UpcastWino, AccurateAtF23) {
  const ConvDesc d = make_desc(1, 64, 64, 12);
  Problem p = make_problem(d, 60);
  UpcastWinoConv conv(d);
  conv.calibrate(p.input);
  conv.finalize_calibration();
  conv.set_filters(p.weights, p.bias);
  // No post-transform rounding: accuracy ~ spatial INT8 quantization only.
  EXPECT_GT(snr_of(conv, p), 25.0);
}

TEST(UpcastWino, MatchesInt8DirectAccuracyClass) {
  // Up-casting's whole point: same accuracy class as non-Winograd INT8.
  const ConvDesc d = make_desc(1, 64, 64, 10);
  Problem p = make_problem(d, 61);
  UpcastWinoConv up(d);
  up.set_input_threshold(abs_max(p.input));
  up.set_filters(p.weights, p.bias);
  Int8DirectConv direct(d);
  direct.set_input_threshold(abs_max(p.input));
  direct.set_filters(p.weights, p.bias);
  const double snr_up = snr_of(up, p);
  std::vector<float> out(p.ref.size());
  direct.execute_nchw(p.input, out);
  const double snr_direct = quantization_error(p.ref, out).signal_to_noise_db;
  EXPECT_GT(snr_up, snr_direct - 6.0);
}

TEST(UpcastWino, ParallelMatchesSerial) {
  ThreadPool pool(3);
  const ConvDesc d = make_desc(1, 64, 64, 8);
  Problem p = make_problem(d, 62);
  UpcastWinoConv conv(d);
  conv.set_input_threshold(1.0f);
  conv.set_filters(p.weights, p.bias);
  std::vector<float> a(p.ref.size()), b(p.ref.size());
  conv.execute_nchw(p.input, a);
  conv.execute_nchw(p.input, b, &pool);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

// --- Down-scaling (oneDNN-style) ---------------------------------------------
TEST(DownscaleWino, F23ModeratelyLossy) {
  const ConvDesc d = make_desc(1, 64, 64, 12);
  Problem p = make_problem(d, 70);
  DownscaleWinoConv conv(d, 2);
  conv.calibrate(p.input);
  conv.finalize_calibration();
  conv.set_filters(p.weights, p.bias);
  const double snr = snr_of(conv, p);
  EXPECT_GT(snr, 10.0);  // usable...
  EXPECT_LT(snr, 30.0);  // ...but clearly worse than LoWino F(2,3)
}

TEST(DownscaleWino, F43Collapses) {
  // Section 5.2: "the down-scaling approach with F(4x4,3x3) drops the model
  // accuracy to zero". Per layer that shows as near-zero SNR.
  const ConvDesc d = make_desc(1, 64, 64, 12);
  Problem p = make_problem(d, 71);
  DownscaleWinoConv conv(d, 4);
  conv.calibrate(p.input);
  conv.finalize_calibration();
  conv.set_filters(p.weights, p.bias);
  EXPECT_LT(snr_of(conv, p), 8.0);
  EXPECT_FLOAT_EQ(conv.down_scale_factor(), 0.01f);  // the paper's 1/100
}

TEST(DownscaleWino, F23FactorIsQuarter) {
  const ConvDesc d = make_desc(1, 64, 64, 8);
  DownscaleWinoConv conv(d, 2);
  EXPECT_FLOAT_EQ(conv.down_scale_factor(), 0.25f);  // the paper's 1/4
}

TEST(AccuracyOrdering, PaperTable3Shape) {
  // The central accuracy claim, per layer:
  //   LoWino F(2,3) > downscale F(2,3), LoWino F(4,4) >> downscale F(4,4).
  const ConvDesc d = make_desc(1, 64, 64, 16);
  Problem p = make_problem(d, 72);

  auto lowino_snr = [&](std::size_t m) {
    LoWinoConfig cfg;
    cfg.m = m;
    LoWinoConvolution conv(d, cfg);
    conv.calibrate(p.input);
    conv.finalize_calibration();
    conv.set_filters(p.weights, p.bias);
    std::vector<float> out(p.ref.size());
    conv.execute_nchw(p.input, out);
    return quantization_error(p.ref, out).signal_to_noise_db;
  };
  auto downscale_snr = [&](std::size_t m) {
    DownscaleWinoConv conv(d, m);
    conv.calibrate(p.input);
    conv.finalize_calibration();
    conv.set_filters(p.weights, p.bias);
    return snr_of(conv, p);
  };

  const double lw2 = lowino_snr(2), lw4 = lowino_snr(4);
  const double ds2 = downscale_snr(2), ds4 = downscale_snr(4);
  EXPECT_GT(lw2, ds2 + 3.0) << "LoWino F(2,3) must beat down-scaling F(2,3)";
  EXPECT_GT(lw4, ds4 + 10.0) << "LoWino F(4,4) must crush down-scaling F(4,4)";
  EXPECT_LT(ds4, 8.0) << "down-scaling F(4,4) must collapse";
  EXPECT_GT(lw4, 14.0) << "LoWino F(4,4) must stay usable";
}

// --- Fused vendor-style engine ----------------------------------------------
TEST(VendorWino, MatchesDownscaleAccuracyClass) {
  // Same quantization scheme as DownscaleWinoConv — only the execution
  // schedule differs — so the results must be numerically similar.
  const ConvDesc d = make_desc(1, 64, 64, 12);
  Problem p = make_problem(d, 80);
  VendorWinoF23 vendor(d);
  vendor.set_input_threshold(abs_max(p.input));
  vendor.set_filters(p.weights, p.bias);
  DownscaleWinoConv ds(d, 2);
  ds.set_input_threshold(abs_max(p.input));
  ds.set_filters(p.weights, p.bias);
  const double snr_vendor = snr_of(vendor, p);
  const double snr_ds = snr_of(ds, p);
  EXPECT_NEAR(snr_vendor, snr_ds, 3.0);
}

TEST(VendorWino, StripSizeRespondsToCacheBudget) {
  const ConvDesc d = make_desc(1, 256, 256, 32);
  VendorWinoF23 small(d, 64 * 1024);
  VendorWinoF23 large(d, 1024 * 1024);
  EXPECT_LT(small.strip_tiles(), large.strip_tiles());
  EXPECT_GE(small.strip_tiles(), 1u);
}

TEST(VendorWino, ParallelMatchesSerial) {
  ThreadPool pool(4);
  const ConvDesc d = make_desc(1, 64, 64, 14);
  Problem p = make_problem(d, 81);
  VendorWinoF23 conv(d);
  conv.set_input_threshold(1.0f);
  conv.set_filters(p.weights, p.bias);
  std::vector<float> a(p.ref.size()), b(p.ref.size());
  conv.execute_nchw(p.input, a);
  conv.execute_nchw(p.input, b, &pool);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(VendorWino, ProfilerRecordsEveryStage) {
  // Each strip's transform, GEMM and output transform are profiler spans.
  const ConvDesc d = make_desc(1, 64, 64, 12);
  Problem p = make_problem(d, 82);
  VendorWinoF23 conv(d);
  conv.set_input_threshold(1.0f);
  conv.set_filters(p.weights, p.bias);
  std::vector<float> out(p.ref.size());
  const bool was_enabled = profiler_enabled();
  profiler_set_enabled(true);
  const auto before = profiler_stage_totals();
  conv.execute_nchw(p.input, out);
  const auto after = profiler_stage_totals();
  profiler_set_enabled(was_enabled);
  for (const ProfileStage s : {ProfileStage::kInputTransform, ProfileStage::kGemm,
                               ProfileStage::kOutputTransform}) {
    const auto i = static_cast<std::size_t>(s);
    EXPECT_GT(after[i].spans, before[i].spans) << profile_stage_name(s);
    EXPECT_GT(after[i].seconds, before[i].seconds) << profile_stage_name(s);
  }
}

}  // namespace
}  // namespace lowino
