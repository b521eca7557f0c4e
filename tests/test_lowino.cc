// End-to-end tests of the LoWino convolution engine against the FP32 oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "direct/direct_f32.h"
#include "lowino/lowino.h"
#include "nn/engines.h"
#include "profile/profiler.h"
#include "quant/quantize.h"
#include "tensor/pack.h"

namespace lowino {
namespace {

ConvDesc make_desc(std::size_t b, std::size_t c, std::size_t k, std::size_t hw,
                   std::size_t r = 3, std::size_t pad = 1) {
  ConvDesc d;
  d.batch = b;
  d.in_channels = c;
  d.out_channels = k;
  d.height = d.width = hw;
  d.kernel = r;
  d.pad = pad;
  return d;
}

struct Problem {
  std::vector<float> input, weights, bias, ref;
};

Problem make_problem(const ConvDesc& desc, unsigned seed) {
  Problem p;
  Rng rng(seed);
  p.input.resize(desc.batch * desc.in_channels * desc.height * desc.width);
  p.weights.resize(desc.out_channels * desc.in_channels * desc.kernel * desc.kernel);
  p.bias.resize(desc.out_channels);
  for (auto& v : p.input) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : p.weights) v = rng.normal() * 0.1f;
  for (auto& v : p.bias) v = rng.uniform(-0.2f, 0.2f);
  p.ref.resize(desc.batch * desc.out_channels * desc.out_height() * desc.out_width());
  direct_conv_f32_reference(desc, p.input, p.weights, p.bias, p.ref);
  return p;
}

double run_and_snr(const ConvDesc& desc, const LoWinoConfig& cfg, const Problem& p,
                   ThreadPool* pool = nullptr) {
  LoWinoConvolution conv(desc, cfg);
  conv.calibrate(p.input);
  conv.finalize_calibration();
  conv.set_filters(p.weights, p.bias);
  std::vector<float> out(p.ref.size());
  conv.execute_nchw(p.input, out, pool);
  return quantization_error(p.ref, out).signal_to_noise_db;
}

// --- Accuracy across layer shapes and tile sizes ---------------------------
class LoWinoShapes : public ::testing::TestWithParam<std::tuple<ConvDesc, int>> {};

/// Expected accuracy degrades with tile size (the instability of Section 2.2,
/// which Winograd-domain quantization mitigates but cannot eliminate).
double min_snr_db(int m) {
  switch (m) {
    case 2: return 28.0;
    case 4: return 16.0;
    default: return 9.0;  // m = 6
  }
}

TEST_P(LoWinoShapes, CloseToFp32Reference) {
  const auto [desc, m] = GetParam();
  LoWinoConfig cfg;
  cfg.m = static_cast<std::size_t>(m);
  const Problem p = make_problem(desc, 100 + m);
  const double snr = run_and_snr(desc, cfg, p);
  EXPECT_GT(snr, min_snr_db(m)) << desc.to_string() << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LoWinoShapes,
    ::testing::Combine(::testing::Values(make_desc(1, 64, 64, 14), make_desc(2, 64, 64, 7),
                                         make_desc(1, 128, 64, 12), make_desc(1, 64, 128, 9),
                                         make_desc(1, 192, 64, 10),  // 3 channel blocks
                                         make_desc(1, 64, 64, 13),   // odd spatial
                                         make_desc(1, 100, 80, 8)),  // non-64-multiple C/K
                       ::testing::Values(2, 4, 6)));

// --- Functional properties --------------------------------------------------
TEST(LoWino, IdentityFilterReproducesInput) {
  // A delta kernel makes convolution the identity; the quantized engine must
  // reproduce the input to within quantization noise.
  const ConvDesc d = make_desc(1, 64, 64, 8);
  std::vector<float> w(64 * 64 * 9, 0.0f);
  for (std::size_t k = 0; k < 64; ++k) w[(k * 64 + k) * 9 + 4] = 1.0f;  // center tap
  Rng rng(5);
  std::vector<float> in(64 * 64);
  for (auto& v : in) v = rng.uniform(-1.0f, 1.0f);

  LoWinoConfig cfg;
  cfg.m = 4;
  LoWinoConvolution conv(d, cfg);
  conv.calibrate(in);
  conv.finalize_calibration();
  conv.set_filters(w);
  std::vector<float> out(in.size());
  conv.execute_nchw(in, out);
  EXPECT_GT(quantization_error(in, out).signal_to_noise_db, 25.0);
}

TEST(LoWinoCalibration, InfInCalibrationInputGivesFiniteScales) {
  // A +Inf in the calibration data used to hang Histogram::collect (an
  // infinite bin width never stops the range-growth loop). Non-finite
  // transformed values are now ignored: calibration returns, every
  // Winograd-domain input scale is finite, and the lowino_f4 engine built on
  // those scales serves finite, accurate outputs.
  const ConvDesc d = make_desc(1, 64, 64, 12);
  const Problem p = make_problem(d, 31);
  std::vector<float> calib = p.input;
  calib[5] = std::numeric_limits<float>::infinity();
  calib[300] = -std::numeric_limits<float>::infinity();

  LoWinoConfig cfg;
  cfg.m = 4;
  LoWinoConvolution conv(d, cfg);
  conv.calibrate(calib);
  conv.finalize_calibration();
  for (std::size_t t = 0; t < conv.scales().t_elems(); ++t) {
    const float s = conv.scales().input_scale(t);
    EXPECT_TRUE(std::isfinite(s)) << "tap " << t;
    EXPECT_GT(s, 0.0f) << "tap " << t;
  }

  std::unique_ptr<ConvEngine> engine = make_conv_engine(EngineKind::kLoWinoF4, d);
  engine->calibrate(calib);
  engine->finalize_calibration();
  engine->set_filters(p.weights, p.bias);
  std::vector<float> out(p.ref.size());
  engine->run(p.input, out, nullptr);
  for (const float v : out) ASSERT_TRUE(std::isfinite(v));
  const double clean_snr = run_and_snr(d, cfg, p);
  EXPECT_GT(quantization_error(p.ref, out).signal_to_noise_db, clean_snr - 1.0);
}

TEST(LoWino, ZeroFilterGivesBias) {
  const ConvDesc d = make_desc(1, 64, 64, 6);
  std::vector<float> w(64 * 64 * 9, 0.0f), bias(64);
  for (std::size_t k = 0; k < 64; ++k) bias[k] = 0.01f * static_cast<float>(k);
  Rng rng(6);
  std::vector<float> in(64 * 36);
  for (auto& v : in) v = rng.uniform(-1.0f, 1.0f);
  LoWinoConvolution conv(d, {});
  conv.calibrate(in);
  conv.finalize_calibration();
  conv.set_filters(w, bias);
  std::vector<float> out(64 * 36);
  conv.execute_nchw(in, out);
  for (std::size_t k = 0; k < 64; ++k) {
    for (std::size_t i = 0; i < 36; ++i) {
      ASSERT_NEAR(out[k * 36 + i], bias[k], 1e-4f);
    }
  }
}

TEST(LoWino, FusedReluMatchesPostRelu) {
  const ConvDesc d = make_desc(1, 64, 64, 8);
  const Problem p = make_problem(d, 77);
  LoWinoConfig cfg;
  LoWinoConvolution plain(d, cfg);
  plain.calibrate(p.input);
  plain.finalize_calibration();
  plain.set_filters(p.weights, p.bias);
  LoWinoConvolution fused(d, cfg);
  fused.calibrate(p.input);
  fused.finalize_calibration();
  fused.set_filters(p.weights, p.bias);
  std::vector<float> a(p.ref.size()), b(p.ref.size());
  plain.execute_nchw(p.input, a);
  fused.execute_nchw(p.input, b, nullptr, PostOps{.relu = true});
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::max(0.0f, a[i]), b[i]);
  }
}

TEST(LoWino, ParallelMatchesSerialBitExactly) {
  ThreadPool pool(4);
  const ConvDesc d = make_desc(2, 64, 64, 10);
  const Problem p = make_problem(d, 88);
  LoWinoConvolution conv(d, {});
  conv.calibrate(p.input);
  conv.finalize_calibration();
  conv.set_filters(p.weights, p.bias);
  std::vector<float> serial(p.ref.size()), parallel(p.ref.size());
  conv.execute_nchw(p.input, serial);
  conv.execute_nchw(p.input, parallel, &pool);
  for (std::size_t i = 0; i < serial.size(); ++i) ASSERT_EQ(serial[i], parallel[i]);
}

TEST(LoWino, RepeatedExecutionIsDeterministic) {
  const ConvDesc d = make_desc(1, 64, 64, 9);
  const Problem p = make_problem(d, 99);
  LoWinoConvolution conv(d, {});
  conv.calibrate(p.input);
  conv.finalize_calibration();
  conv.set_filters(p.weights, p.bias);
  std::vector<float> a(p.ref.size()), b(p.ref.size());
  conv.execute_nchw(p.input, a);
  conv.execute_nchw(p.input, b);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(LoWino, BlockedExecuteMatchesNchw) {
  const ConvDesc d = make_desc(1, 64, 64, 8);
  const Problem p = make_problem(d, 101);
  LoWinoConvolution conv(d, {});
  conv.calibrate(p.input);
  conv.finalize_calibration();
  conv.set_filters(p.weights, p.bias);

  std::vector<float> nchw_out(p.ref.size());
  conv.execute_nchw(p.input, nchw_out);

  AlignedBuffer<float> in_blocked(conv.input_layout().size());
  AlignedBuffer<float> out_blocked(conv.output_layout().size());
  pack_nchw_to_blocked(p.input, d.batch, d.in_channels, d.height, d.width, in_blocked.span());
  conv.execute_blocked(in_blocked.span(), out_blocked.span());
  std::vector<float> blocked_out(p.ref.size());
  unpack_blocked_to_nchw(out_blocked.span(), d.batch, d.out_channels, d.out_height(),
                         d.out_width(), blocked_out);
  for (std::size_t i = 0; i < nchw_out.size(); ++i) ASSERT_EQ(nchw_out[i], blocked_out[i]);
}

// --- Prefix-batch execution ---------------------------------------------------

/// Bytes of images [0, n) and [n, batch) of `buf` (image-major, `image`
/// bytes each) against `want` and `canary`.
void expect_prefix(const std::vector<std::uint8_t>& got, const std::vector<std::uint8_t>& want,
                   const std::vector<std::uint8_t>& canary, std::size_t n, std::size_t image) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n * image)) << "prefix differs, n=" << n;
  EXPECT_EQ(0, std::memcmp(got.data() + n * image, canary.data() + n * image,
                           got.size() - n * image))
      << "images past the prefix were written, n=" << n;
}

template <typename T>
std::vector<std::uint8_t> bytes_of(const T* data, std::size_t count) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(data);
  return std::vector<std::uint8_t>(p, p + count * sizeof(T));
}

/// Every prefix 1..B-1 of a LoWino convolution in an explicit execution mode
/// against the whole-batch run, through the NCHW, blocked FP32 and blocked
/// u8 entry points. The small n_blk makes every prefix end inside an n-block
/// (25 or 9 tiles per image vs 12-row blocks), and the 4-thread pool has
/// more workers than a one-image prefix has n-blocks. The blocked runs fuse
/// a residual that aliases the output: images past the prefix must keep
/// their residual bytes.
void expect_lowino_prefix_runs_exact(std::size_t m, ExecutionMode mode) {
  SCOPED_TRACE(testing::Message() << "m=" << m << " fused=" << (mode == ExecutionMode::kFused));
  ThreadPool pool(4);
  const ConvDesc d = make_desc(3, 72, 80, 10);
  const Problem p = make_problem(d, 500 + static_cast<unsigned>(m));
  LoWinoConfig cfg;
  cfg.m = m;
  cfg.execution_mode = mode;
  cfg.blocking.n_blk = 12;
  LoWinoConvolution conv(d, cfg);
  conv.calibrate(p.input);
  conv.finalize_calibration();
  conv.set_filters(p.weights, p.bias);
  const std::size_t B = d.batch;
  const std::size_t out_n = p.ref.size();

  // NCHW FP32.
  std::vector<float> full(out_n);
  conv.execute_nchw(p.input, full, &pool);
  ASSERT_EQ(conv.last_execution_mode(), mode);
  const std::vector<std::uint8_t> want = bytes_of(full.data(), out_n);
  const std::vector<std::uint8_t> canary(want.size(), 0xA5);
  for (std::size_t n = 1; n < B; ++n) {
    std::vector<float> out(out_n);
    std::memcpy(out.data(), canary.data(), canary.size());
    conv.execute_nchw(p.input, out, &pool, {}, n);
    expect_prefix(bytes_of(out.data(), out_n), want, canary, n, want.size() / B);
  }

  // Blocked FP32, ReLU + a residual aliasing the output.
  const BlockedActLayout in_l = conv.input_layout(), out_l = conv.output_layout();
  AlignedBuffer<float> in_b(in_l.size()), res_b(out_l.size());
  pack_nchw_to_blocked(p.input, B, d.in_channels, d.height, d.width, in_b.span());
  pack_nchw_to_blocked(p.ref, B, d.out_channels, d.out_height(), d.out_width(), res_b.span());
  const std::vector<std::uint8_t> res = bytes_of(res_b.data(), out_l.size());
  AlignedBuffer<float> out_b(out_l.size());
  std::memcpy(out_b.data(), res.data(), res.size());
  conv.execute_blocked(in_b.span(), out_b.span(), &pool, PostOps{true, out_b.data()});
  const std::vector<std::uint8_t> want_b = bytes_of(out_b.data(), out_l.size());
  for (std::size_t n = 1; n < B; ++n) {
    std::memcpy(out_b.data(), res.data(), res.size());
    conv.execute_blocked(in_b.span(), out_b.span(), &pool, PostOps{true, out_b.data()}, n);
    expect_prefix(bytes_of(out_b.data(), out_l.size()), want_b, res, n, res.size() / B);
  }

  // Blocked u8 hand-off in and out, with a u8 residual aliasing the output.
  conv.set_input_u8(QuantParams::from_threshold(1.0f));
  conv.set_output_u8(QuantParams::from_threshold(4.0f));
  std::vector<std::uint8_t> nchw8(p.input.size()), nchw_res8(out_n);
  Rng rng(77);
  for (auto& v : nchw8) v = static_cast<std::uint8_t>(rng.next_u64());
  for (auto& v : nchw_res8) v = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::uint8_t> in8(in_l.size()), res8(out_l.size());  // padding lanes 128
  relayout(DType::kU8, ActLayout::kBlocked64, nchw8.data(), B, d.in_channels, d.height, d.width,
           in8.data());
  relayout(DType::kU8, ActLayout::kBlocked64, nchw_res8.data(), B, d.out_channels,
           d.out_height(), d.out_width(), res8.data());
  PostOps post8;
  post8.sum_u8_inv_scale = 0.02f;
  std::vector<std::uint8_t> out8 = res8;
  post8.sum_u8 = out8.data();
  conv.execute_blocked_typed(in8.data(), out8.data(), &pool, post8);
  const std::vector<std::uint8_t> want8 = out8;
  for (std::size_t n = 1; n < B; ++n) {
    out8 = res8;
    post8.sum_u8 = out8.data();
    conv.execute_blocked_typed(in8.data(), out8.data(), &pool, post8, n);
    expect_prefix(out8, want8, res8, n, res8.size() / B);
  }

  std::vector<float> out(out_n);
  EXPECT_THROW(conv.execute_nchw(p.input, out, &pool, {}, 0), std::invalid_argument);
  EXPECT_THROW(conv.execute_nchw(p.input, out, &pool, {}, B + 1), std::invalid_argument);
}

TEST(PrefixRun, EngineLoWinoStaged) {
  for (const std::size_t m : {2, 4}) expect_lowino_prefix_runs_exact(m, ExecutionMode::kStaged);
}

TEST(PrefixRun, EngineLoWinoFused) {
  for (const std::size_t m : {2, 4}) expect_lowino_prefix_runs_exact(m, ExecutionMode::kFused);
}

// --- Quantization design properties ----------------------------------------
TEST(LoWino, PerPositionScalesBeatPerTensorAtF43) {
  // The core claim of Section 3: quantizing in the Winograd domain with
  // position-aware scales preserves accuracy where coarse scales lose it.
  const ConvDesc d = make_desc(1, 64, 64, 12);
  const Problem p = make_problem(d, 202);
  LoWinoConfig per_pos;
  per_pos.m = 4;
  per_pos.input_scales = ScaleGranularity::kPerPosition;
  LoWinoConfig per_tensor;
  per_tensor.m = 4;
  per_tensor.input_scales = ScaleGranularity::kPerTensor;
  const double snr_pos = run_and_snr(d, per_pos, p);
  const double snr_tensor = run_and_snr(d, per_tensor, p);
  EXPECT_GT(snr_pos, snr_tensor + 3.0)
      << "per-position scales should be clearly more accurate";
}

TEST(LoWino, PerChannelFilterScalesHelp) {
  const ConvDesc d = make_desc(1, 64, 64, 8);
  // Give channels wildly different magnitudes to stress per-channel scaling.
  Problem p = make_problem(d, 203);
  for (std::size_t k = 0; k < 64; ++k) {
    const float gain = (k % 8 == 0) ? 4.0f : 0.05f;
    for (std::size_t i = 0; i < 64 * 9; ++i) p.weights[k * 64 * 9 + i] *= gain;
  }
  direct_conv_f32_reference(d, p.input, p.weights, p.bias, p.ref);
  LoWinoConfig per_chan;
  per_chan.per_channel_filter_scales = true;
  LoWinoConfig per_pos_only;
  per_pos_only.per_channel_filter_scales = false;
  const double snr_chan = run_and_snr(d, per_chan, p);
  const double snr_plain = run_and_snr(d, per_pos_only, p);
  EXPECT_GT(snr_chan, snr_plain);
}

TEST(LoWino, F2AndF4HaveComparableAccuracy) {
  // The headline result (Table 3): the larger tile keeps accuracy reasonable
  // under Winograd-domain quantization.
  const ConvDesc d = make_desc(1, 64, 64, 16);
  const Problem p = make_problem(d, 204);
  LoWinoConfig f2;
  f2.m = 2;
  LoWinoConfig f4;
  f4.m = 4;
  const double snr2 = run_and_snr(d, f2, p);
  const double snr4 = run_and_snr(d, f4, p);
  EXPECT_GT(snr2, 28.0);
  EXPECT_GT(snr4, 16.0);
  EXPECT_LT(std::abs(snr2 - snr4), 22.0) << "F(4x4) should not collapse";
}

TEST(LoWino, UniformThresholdPathWorks) {
  const ConvDesc d = make_desc(1, 64, 64, 8);
  const Problem p = make_problem(d, 205);
  LoWinoConvolution conv(d, {});
  // A safe Winograd-domain bound: the 2D amplification times |input|_inf.
  conv.set_uniform_input_threshold(
      static_cast<float>(conv.transform().input_amplification_2d()) * abs_max(p.input));
  conv.set_filters(p.weights, p.bias);
  std::vector<float> out(p.ref.size());
  conv.execute_nchw(p.input, out);
  EXPECT_GT(quantization_error(p.ref, out).signal_to_noise_db, 8.0);
}

TEST(LoWino, PerPositionThresholdsBeatUniform) {
  const ConvDesc d = make_desc(1, 64, 64, 12);
  const Problem p = make_problem(d, 207);
  LoWinoConfig cfg;
  cfg.m = 4;
  // Uniform threshold: the worst-case Winograd-domain bound.
  LoWinoConvolution uniform(d, cfg);
  const float bound =
      static_cast<float>(uniform.transform().input_amplification_2d()) * abs_max(p.input);
  uniform.set_uniform_input_threshold(bound);
  uniform.set_filters(p.weights, p.bias);
  std::vector<float> out_u(p.ref.size());
  uniform.execute_nchw(p.input, out_u);

  // Per-position thresholds via calibration.
  const double snr_cal = run_and_snr(d, cfg, p);
  EXPECT_GT(snr_cal, quantization_error(p.ref, out_u).signal_to_noise_db + 2.0);
}

// --- API contract -----------------------------------------------------------
TEST(LoWino, ThrowsWithoutSetup) {
  const ConvDesc d = make_desc(1, 64, 64, 8);
  LoWinoConvolution conv(d, {});
  std::vector<float> in(64 * 64), out(64 * 64);
  EXPECT_THROW(conv.execute_nchw(in, out), std::logic_error);
  EXPECT_THROW(conv.finalize_calibration(), std::logic_error);
}

TEST(LoWino, RejectsUnsupportedDescriptors) {
  ConvDesc strided = make_desc(1, 64, 64, 8);
  strided.stride = 2;
  EXPECT_THROW(LoWinoConvolution conv(strided, {}), std::invalid_argument);
  ConvDesc one_by_one = make_desc(1, 64, 64, 8, 1, 0);
  EXPECT_THROW(LoWinoConvolution conv2(one_by_one, {}), std::invalid_argument);
}

TEST(LoWino, ProfilerRecordsStagedStages) {
  // The staged pipeline reports its per-stage split through profiler spans.
  const ConvDesc d = make_desc(1, 64, 64, 8);
  const Problem p = make_problem(d, 206);
  LoWinoConfig cfg;
  cfg.execution_mode = ExecutionMode::kStaged;
  LoWinoConvolution conv(d, cfg);
  conv.calibrate(p.input);
  conv.finalize_calibration();
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

TEST(LoWino, WorkspaceBytesScaleWithTileSize) {
  // Needs enough tiles that Nblk padding is negligible (real layer sizes).
  const ConvDesc d = make_desc(1, 64, 64, 64);
  LoWinoConfig f2;
  f2.m = 2;
  LoWinoConfig f4;
  f4.m = 4;
  LoWinoConvolution c2(d, f2), c4(d, f4);
  // F(4x4) has 2.25x the per-tile intermediate volume but 4x fewer tiles; the
  // total intermediate size must be smaller (that is its memory advantage).
  EXPECT_LT(c4.workspace_bytes(), c2.workspace_bytes());
}

TEST(AdaptBlocking, ClampsAndRepairs) {
  Int8GemmBlocking b;  // defaults: 96/512/64, 6x4
  const Int8GemmBlocking small = adapt_blocking(b, 64, 64);
  EXPECT_EQ(small.c_blk, 64u);
  EXPECT_EQ(small.k_blk, 64u);
  EXPECT_TRUE(small.valid());
  b.k_blk = 128;
  b.col_blk = 8;
  b.row_blk = 2;
  const Int8GemmBlocking fixed = adapt_blocking(b, 256, 192);
  EXPECT_TRUE(fixed.valid());
}

}  // namespace
}  // namespace lowino
