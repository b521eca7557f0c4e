// Tests for the direct convolution engines (FP32 reference, im2col FP32,
// INT8 direct, and the blocked I/O of the INT8 direct and depthwise
// engines).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/saturate.h"
#include "direct/direct_depthwise.h"
#include "direct/direct_f32.h"
#include "direct/direct_int8.h"
#include "nn/engines.h"
#include "parallel/thread_pool.h"
#include "quant/quantize.h"
#include "tensor/layout.h"
#include "tensor/pack.h"
#include "testing/oracle.h"

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
  ConvDesc desc;
};

Problem make_problem(const ConvDesc& desc, unsigned seed, bool relu = false) {
  Problem p;
  p.desc = desc;
  Rng rng(seed);
  p.input.resize(desc.batch * desc.in_channels * desc.height * desc.width);
  p.weights.resize(desc.out_channels * desc.in_channels * desc.kernel * desc.kernel);
  p.bias.resize(desc.out_channels);
  for (auto& v : p.input) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : p.weights) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : p.bias) v = rng.uniform(-0.2f, 0.2f);
  p.ref.resize(desc.batch * desc.out_channels * desc.out_height() * desc.out_width());
  direct_conv_f32_reference(desc, p.input, p.weights, p.bias, p.ref, relu);
  return p;
}

TEST(DirectF32Reference, HandChecked1x1x3x3) {
  // One channel, one filter, 3x3 input, 3x3 kernel, pad 1: center output is
  // the full dot product.
  ConvDesc d = make_desc(1, 1, 1, 3);
  std::vector<float> in = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> w = {0, 0, 0, 0, 1, 0, 0, 0, 0};  // identity kernel
  std::vector<float> out(9);
  direct_conv_f32_reference(d, in, w, {}, out);
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(out[i], in[i]);
}

TEST(DirectF32Reference, PaddingZeros) {
  ConvDesc d = make_desc(1, 1, 1, 2);
  std::vector<float> in = {1, 1, 1, 1};
  std::vector<float> w(9, 1.0f);  // sum kernel
  std::vector<float> out(4);
  direct_conv_f32_reference(d, in, w, {}, out);
  // each output = sum of in-bounds neighbors = 4 for all (2x2 image).
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out[i], 4.0f);
}

TEST(DirectF32Reference, ReluClamps) {
  ConvDesc d = make_desc(1, 1, 1, 2, 3, 1);
  std::vector<float> in = {1, 1, 1, 1};
  std::vector<float> w(9, -1.0f);
  std::vector<float> out(4);
  direct_conv_f32_reference(d, in, w, {}, out, /*relu=*/true);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out[i], 0.0f);
}

TEST(DirectF32Reference, ParallelMatchesSerial) {
  ThreadPool pool(4);
  const ConvDesc d = make_desc(2, 5, 7, 9);
  Problem p = make_problem(d, 42);
  std::vector<float> out(p.ref.size());
  direct_conv_f32_reference(d, p.input, p.weights, p.bias, out, false, &pool);
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], p.ref[i]);
}

class Im2colShapes : public ::testing::TestWithParam<ConvDesc> {};

TEST_P(Im2colShapes, MatchesReference) {
  const ConvDesc d = GetParam();
  Problem p = make_problem(d, 7);
  Im2colConvF32 conv(d);
  conv.set_filters(p.weights, p.bias);
  std::vector<float> out(p.ref.size());
  conv.execute_nchw(p.input, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_NEAR(out[i], p.ref[i], 1e-3f) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Im2colShapes,
                         ::testing::Values(make_desc(1, 1, 1, 4), make_desc(1, 3, 5, 8),
                                           make_desc(2, 16, 16, 7),
                                           make_desc(1, 64, 64, 14),
                                           make_desc(1, 8, 8, 5, 3, 0),   // no padding
                                           make_desc(1, 4, 4, 9, 5, 2),   // 5x5 kernel
                                           make_desc(3, 2, 17, 6)));

TEST(Im2colConv, FusedReluMatchesReference) {
  const ConvDesc d = make_desc(1, 8, 8, 6);
  Problem p = make_problem(d, 19, /*relu=*/true);
  Im2colConvF32 conv(d);
  conv.set_filters(p.weights, p.bias);
  std::vector<float> out(p.ref.size());
  conv.execute_nchw(p.input, out, nullptr, PostOps{.relu = true});
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_NEAR(out[i], p.ref[i], 1e-3f);
}

class Int8DirectShapes : public ::testing::TestWithParam<ConvDesc> {};

TEST_P(Int8DirectShapes, CloseToFp32Reference) {
  const ConvDesc d = GetParam();
  Problem p = make_problem(d, 21);
  Int8DirectConv conv(d);
  conv.calibrate(p.input);
  conv.finalize_calibration();
  conv.set_filters(p.weights, p.bias);
  std::vector<float> out(p.ref.size());
  conv.execute_nchw(p.input, out);
  const QuantError e = quantization_error(p.ref, out);
  EXPECT_GT(e.signal_to_noise_db, 25.0) << "INT8 direct conv too inaccurate";
}

INSTANTIATE_TEST_SUITE_P(Shapes, Int8DirectShapes,
                         ::testing::Values(make_desc(1, 16, 16, 8), make_desc(1, 64, 64, 14),
                                           make_desc(2, 32, 48, 7), make_desc(1, 3, 8, 10),
                                           make_desc(1, 64, 128, 7, 3, 1)));

TEST(Int8Direct, SetThresholdBypassesCalibration) {
  const ConvDesc d = make_desc(1, 8, 8, 6);
  Problem p = make_problem(d, 30);
  Int8DirectConv conv(d);
  conv.set_input_threshold(abs_max(p.input));
  conv.set_filters(p.weights, p.bias);
  std::vector<float> out(p.ref.size());
  conv.execute_nchw(p.input, out);
  EXPECT_GT(quantization_error(p.ref, out).signal_to_noise_db, 25.0);
}

TEST(Int8Direct, ZeroInputGivesBias) {
  const ConvDesc d = make_desc(1, 8, 4, 4);
  Problem p = make_problem(d, 31);
  std::vector<float> zeros(p.input.size(), 0.0f);
  Int8DirectConv conv(d);
  conv.set_input_threshold(1.0f);
  conv.set_filters(p.weights, p.bias);
  std::vector<float> out(p.ref.size());
  conv.execute_nchw(zeros, out);
  const std::size_t hw = d.out_height() * d.out_width();
  for (std::size_t k = 0; k < d.out_channels; ++k) {
    for (std::size_t i = 0; i < hw; ++i) {
      ASSERT_NEAR(out[k * hw + i], p.bias[k], 1e-5f);
    }
  }
}

TEST(Int8Direct, ParallelMatchesSerial) {
  ThreadPool pool(4);
  const ConvDesc d = make_desc(1, 32, 32, 10);
  Problem p = make_problem(d, 33);
  Int8DirectConv conv(d);
  conv.calibrate(p.input);
  conv.finalize_calibration();
  conv.set_filters(p.weights, p.bias);
  std::vector<float> serial(p.ref.size()), parallel(p.ref.size());
  conv.execute_nchw(p.input, serial);
  conv.execute_nchw(p.input, parallel, &pool);
  for (std::size_t i = 0; i < serial.size(); ++i) ASSERT_EQ(serial[i], parallel[i]);
}

// --- Blocked I/O of the INT8 direct and depthwise engines --------------------

/// run_blocked on packed buffers against the NCHW entry points (run for
/// all-FP32 edges, run_typed otherwise), byte for byte, for every input and
/// output dtype, with and without ReLU, and with no, an FP32 and a u8
/// residual. The blocked output's padding lanes must hold quantized zero, and
/// a residual of the output's dtype may alias the output buffer.
void expect_blocked_matches_nchw(EngineKind kind, const ConvDesc& d, unsigned seed,
                                 ThreadPool& pool) {
  const std::size_t K = d.out_channels, oh = d.out_height(), ow = d.out_width();
  const std::size_t in_n = d.batch * d.in_channels * d.height * d.width;
  const std::size_t out_n = d.batch * K * oh * ow;
  const BlockedActLayout in_layout(d.batch, d.in_channels, d.height, d.width);
  const BlockedActLayout out_layout(d.batch, K, oh, ow);
  Rng rng(seed);
  std::vector<float> in32(in_n), res32(out_n), bias(K);
  std::vector<float> w(K * d.group_in_channels() * d.kernel * d.kernel);
  std::vector<std::uint8_t> in8(in_n), res8(out_n);
  for (auto& v : in32) v = rng.uniform(-1.5f, 1.5f);
  for (auto& v : res32) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);
  for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : in8) v = static_cast<std::uint8_t>(rng.next_u64());
  for (auto& v : res8) v = static_cast<std::uint8_t>(rng.next_u64());

  for (const DType in_t : {DType::kF32, DType::kU8}) {
    for (const DType out_t : {DType::kF32, DType::kU8}) {
      for (const bool relu : {false, true}) {
        for (const int sum : {0, 1, 2}) {  // none, FP32, u8 residual
          SCOPED_TRACE(::testing::Message() << engine_token(kind) << " " << d.to_string() << " in="
                                          << dtype_token(in_t) << " out=" << dtype_token(out_t)
                                          << " relu=" << relu << " sum=" << sum);
          std::unique_ptr<ConvEngine> e = make_conv_engine(kind, d);
          e->calibrate(in32);
          e->finalize_calibration();
          e->set_filters(w, bias);
          if (in_t == DType::kU8) e->set_input_u8(QuantParams::from_threshold(1.0f));
          if (out_t == DType::kU8) e->set_output_u8(QuantParams::from_threshold(2.0f));
          const void* in_nchw =
              in_t == DType::kU8 ? static_cast<const void*>(in8.data()) : in32.data();
          PostOps post;
          post.relu = relu;
          if (sum == 1) post.sum = res32.data();
          if (sum == 2) {
            post.sum_u8 = res8.data();
            post.sum_u8_inv_scale = 0.02f;
          }
          std::vector<std::uint8_t> want(out_n * dtype_bytes(out_t));
          if (in_t == DType::kF32 && out_t == DType::kF32 && sum != 2) {
            e->run(in32, {reinterpret_cast<float*>(want.data()), out_n}, nullptr, post);
          } else {
            e->run_typed(in_nchw, want.data(), nullptr, post);
          }

          std::vector<std::uint8_t> in_b(in_layout.size() * dtype_bytes(in_t));
          relayout(in_t, ActLayout::kBlocked64, in_nchw, d.batch, d.in_channels, d.height,
                   d.width, in_b.data());
          const DType sum_t = sum == 2 ? DType::kU8 : DType::kF32;
          std::vector<std::uint8_t> res_b(sum != 0 ? out_layout.size() * dtype_bytes(sum_t) : 0);
          PostOps bpost = post;
          if (sum != 0) {
            relayout(sum_t, ActLayout::kBlocked64,
                     sum == 2 ? static_cast<const void*>(res8.data()) : res32.data(), d.batch, K,
                     oh, ow, res_b.data());
            bpost.sum = sum == 1 ? reinterpret_cast<const float*>(res_b.data()) : nullptr;
            bpost.sum_u8 = sum == 2 ? res_b.data() : nullptr;
          }
          std::vector<std::uint8_t> out_b(out_layout.size() * dtype_bytes(out_t), 0xAB);
          e->run_blocked(in_b.data(), out_b.data(), &pool, bpost);

          // Padding lanes: quantized zero (byte 128, or 0.0f).
          for (std::size_t b = 0; b < d.batch; ++b) {
            for (std::size_t p = 0; p < oh * ow; ++p) {
              for (std::size_t l = K % kChanBlock; K % kChanBlock != 0 && l < kChanBlock; ++l) {
                const std::size_t at =
                    out_layout.offset(b, out_layout.chan_blocks - 1, p / ow, p % ow) + l;
                if (out_t == DType::kU8) {
                  ASSERT_EQ(out_b[at], 128);
                } else {
                  float v;
                  std::memcpy(&v, out_b.data() + at * sizeof(float), sizeof(float));
                  ASSERT_EQ(v, 0.0f);
                }
              }
            }
          }
          std::vector<std::uint8_t> got(want.size());
          relayout(out_t, ActLayout::kNchw, out_b.data(), d.batch, K, oh, ow, got.data());
          EXPECT_TRUE(got == want);

          if (sum != 0 && sum_t == out_t) {
            // In place: the residual's blocked copy doubles as the output.
            PostOps apost = bpost;
            if (sum == 1) apost.sum = reinterpret_cast<const float*>(res_b.data());
            if (sum == 2) apost.sum_u8 = res_b.data();
            e->run_blocked(in_b.data(), res_b.data(), &pool, apost);
            EXPECT_TRUE(res_b == out_b);
          }
        }
      }
    }
  }
}

ConvDesc blocked_desc(std::size_t c, std::size_t k, std::size_t r, std::size_t stride,
                      std::size_t groups) {
  ConvDesc d;
  d.batch = 2;
  d.in_channels = c;
  d.out_channels = k;
  d.height = 9;  // odd, non-square
  d.width = 7;
  d.kernel = r;
  d.pad = r / 2;
  d.stride = stride;
  d.groups = groups;
  return d;
}

TEST(BlockedDirect, Int8DirectPointwiseRunBlockedMatchesNchwEntryPoints) {
  // r = 1: a u8 input with C <= 64 at stride 1 is multiplied in place, C > 64
  // (96, 160) and stride 2 copy pixel rows into the panel; K = 40 and 130
  // leave padding lanes in the last block.
  ThreadPool pool(3);
  unsigned seed = 100;
  for (const std::size_t c : {24, 32, 64, 96, 160}) {
    for (const std::size_t k : {40, 64, 130}) {
      for (const std::size_t stride : {1, 2}) {
        expect_blocked_matches_nchw(EngineKind::kInt8Direct, blocked_desc(c, k, 1, stride, 1),
                                    ++seed, pool);
      }
    }
  }
}

TEST(BlockedDirect, Int8DepthwiseRunBlockedMatchesNchwEntryPoints) {
  // mult = 2 lane-gathers input channels across blocks (C = 96, 160).
  ThreadPool pool(3);
  unsigned seed = 200;
  for (const std::size_t c : {24, 32, 64, 96, 160}) {
    for (const std::size_t mult : {1, 2}) {
      for (const std::size_t r : {3, 5}) {
        for (const std::size_t stride : {1, 2}) {
          expect_blocked_matches_nchw(EngineKind::kInt8Depthwise,
                                      blocked_desc(c, mult * c, r, stride, c), ++seed, pool);
        }
      }
    }
  }
}

TEST(BlockedDirect, Int8DirectRunBlockedMatchesNchwEntryPoints) {
  // C = 3 and 32 leave most of a block's lanes as padding, which the next
  // tap's copy overwrites; C = 96 and 160 span two and three blocks; r = 1
  // and 5 change the patch length, stride 2 the gather; K = 40 and 130 leave
  // padding lanes in the last output block. One and two worker threads.
  constexpr std::size_t kOut[] = {40, 64, 130};
  unsigned seed = 300;
  for (const std::size_t threads : {1, 2}) {
    ThreadPool pool(threads);
    for (const std::size_t c : {3, 32, 64, 96, 160}) {
      for (const std::size_t r : {1, 3, 5}) {
        for (const std::size_t stride : {1, 2}) {
          const std::size_t k = kOut[seed % 3];
          expect_blocked_matches_nchw(EngineKind::kInt8Direct, blocked_desc(c, k, r, stride, 1),
                                      ++seed, pool);
        }
      }
    }
  }
}

/// The engine's own quantization of `weights` (exact per-output-channel
/// scales over a patch of (C/groups) r^2 weights) and its int64 convolution
/// by the test oracle on input bytes `q` (u8, +128 shifted): the exact
/// accumulators any correct int8_direct or int8_dw path must reproduce
/// before its per-element epilogue.
struct ExactInt8Direct {
  std::vector<float> w_scale;
  std::vector<std::int64_t> acc;
};

ExactInt8Direct exact_int8_direct(const ConvDesc& d, std::span<const float> weights,
                                  std::span<const std::uint8_t> q) {
  const std::size_t K = d.out_channels, patch = d.group_in_channels() * d.kernel * d.kernel;
  ExactInt8Direct x;
  std::vector<std::int8_t> w_q(K * patch), in_q(q.size());
  for (std::size_t k = 0; k < K; ++k) {
    float amax = 0.0f;
    for (std::size_t p = 0; p < patch; ++p) amax = std::max(amax, std::abs(weights[k * patch + p]));
    x.w_scale.push_back(QuantParams::from_threshold(amax).scale);
    for (std::size_t p = 0; p < patch; ++p) {
      w_q[k * patch + p] = saturate_cast_i8(weights[k * patch + p] * x.w_scale[k]);
    }
  }
  for (std::size_t i = 0; i < q.size(); ++i) {
    in_q[i] = static_cast<std::int8_t>(static_cast<int>(q[i]) - 128);
  }
  x.acc = testing::direct_conv_i64(d, in_q, w_q);
  return x;
}

TEST(BlockedDirect, Int8DirectMatchesExactOracleOnItsQuantizedBytes) {
  // FP32 and u8 input; the blocked core (whole batch and a one-image
  // prefix), the NCHW wrapper and the oracle's exact sums pushed through the
  // engine's epilogue (v = acc * dq + bias, then ReLU) agree byte for byte.
  ThreadPool pool(2);
  unsigned seed = 400;
  for (const std::size_t c : {3, 64, 96}) {
    for (const std::size_t r : {1, 3, 5}) {
      for (const std::size_t stride : {1, 2}) {
        for (const bool u8_in : {false, true}) {
          const ConvDesc d = blocked_desc(c, 40, r, stride, 1);
          SCOPED_TRACE(::testing::Message() << d.to_string() << " u8_in=" << u8_in);
          const std::size_t K = d.out_channels, oh = d.out_height(), ow = d.out_width();
          const std::size_t in_n = d.batch * c * d.height * d.width, out_n = d.batch * K * oh * ow;
          Rng rng(++seed);
          std::vector<float> in32(in_n), w(K * c * r * r), bias(K);
          std::vector<std::uint8_t> q(in_n);
          for (auto& v : in32) v = rng.uniform(-1.5f, 1.5f);
          for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
          for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);
          for (auto& v : q) v = static_cast<std::uint8_t>(rng.next_u64());

          Int8DirectConv conv(d);
          conv.set_input_threshold(1.25f);
          conv.set_filters(w, bias);
          if (u8_in) {
            conv.set_input_u8(QuantParams::from_threshold(2.0f));
          } else {
            quantize_u8_shift128(in32, conv.input_scale(), q);  // the engine's own bytes
          }
          const ExactInt8Direct x = exact_int8_direct(d, w, q);
          std::vector<float> want(out_n);
          for (std::size_t i = 0; i < out_n; ++i) {
            const std::size_t k = i / (oh * ow) % K;
            const float dq = 1.0f / (conv.input_scale() * x.w_scale[k]);
            want[i] = std::max(0.0f, static_cast<float>(x.acc[i]) * dq + bias[k]);
          }

          const void* in = u8_in ? static_cast<const void*>(q.data()) : in32.data();
          std::vector<float> nchw(out_n);
          conv.execute_typed(in, nchw.data(), &pool, PostOps{.relu = true});
          EXPECT_EQ(0, std::memcmp(nchw.data(), want.data(), out_n * sizeof(float)));

          const BlockedActLayout in_l(d.batch, c, d.height, d.width), out_l(d.batch, K, oh, ow);
          std::vector<std::uint8_t> in_b(in_l.size() * (u8_in ? 1 : sizeof(float)));
          relayout(u8_in ? DType::kU8 : DType::kF32, ActLayout::kBlocked64, in, d.batch, c,
                   d.height, d.width, in_b.data());
          std::vector<float> out_b(out_l.size()), blocked(out_n);
          conv.execute_blocked_typed(in_b.data(), out_b.data(), &pool, PostOps{.relu = true});
          relayout(DType::kF32, ActLayout::kNchw, out_b.data(), d.batch, K, oh, ow,
                   blocked.data());
          EXPECT_EQ(0, std::memcmp(blocked.data(), want.data(), out_n * sizeof(float)));

          // A one-image prefix writes image 0's bytes and leaves image 1's.
          std::vector<float> prefix(out_l.size(), -7.0f);
          conv.execute_blocked_typed(in_b.data(), prefix.data(), &pool, PostOps{.relu = true},
                                     1);
          const std::size_t image = out_l.size() / d.batch;
          EXPECT_EQ(0, std::memcmp(prefix.data(), out_b.data(), image * sizeof(float)));
          EXPECT_TRUE(std::all_of(prefix.begin() + image, prefix.end(),
                                  [](float v) { return v == -7.0f; }));
        }
      }
    }
  }
}

TEST(BlockedDirect, Int8DepthwiseMatchesExactOracleOnItsQuantizedBytes) {
  // Valid lanes < 16 (C = 24 at multiplier 1), a whole 32-lane block, a
  // partial 16-lane group (40), two and three blocks (64 x 2, 96 x 2); the
  // width (19) is not a multiple of any register tile and the padding is
  // asymmetric. FP32 and u8 input, one and two worker threads: the blocked
  // core (whole batch and a one-image prefix), the NCHW wrapper and the
  // oracle's exact sums pushed through the engine's epilogue
  // (v = acc * dq + bias, then ReLU) agree byte for byte.
  unsigned seed = 600;
  for (const std::size_t threads : {1, 2}) {
    ThreadPool pool(threads);
    for (const std::size_t c : {24, 32, 40, 64, 96}) {
      for (const std::size_t mult : {1, 2}) {
        for (const std::size_t r : {3, 5}) {
          for (const std::size_t stride : {1, 2}) {
            for (const bool u8_in : {false, true}) {
              ConvDesc d = blocked_desc(c, mult * c, r, stride, c);
              d.width = 19;
              d.pad_w = r == 3 ? 2 : 1;
              SCOPED_TRACE(::testing::Message() << d.to_string() << " u8_in=" << u8_in
                                                << " threads=" << threads);
              const std::size_t K = d.out_channels, oh = d.out_height(), ow = d.out_width();
              const std::size_t in_n = d.batch * c * d.height * d.width;
              const std::size_t out_n = d.batch * K * oh * ow;
              Rng rng(++seed);
              std::vector<float> in32(in_n), w(K * r * r), bias(K);
              std::vector<std::uint8_t> q(in_n);
              for (auto& v : in32) v = rng.uniform(-1.5f, 1.5f);
              for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
              for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);
              for (auto& v : q) v = static_cast<std::uint8_t>(rng.next_u64());

              Int8DepthwiseConv conv(d);
              conv.set_input_threshold(1.25f);
              conv.set_filters(w, bias);
              if (u8_in) {
                conv.set_input_u8(QuantParams::from_threshold(2.0f));
              } else {
                quantize_u8_shift128(in32, conv.input_scale(), q);  // the engine's own bytes
              }
              const ExactInt8Direct x = exact_int8_direct(d, w, q);
              std::vector<float> want(out_n);
              for (std::size_t i = 0; i < out_n; ++i) {
                const std::size_t k = i / (oh * ow) % K;
                const float dq = 1.0f / (conv.input_scale() * x.w_scale[k]);
                want[i] = std::max(0.0f, static_cast<float>(x.acc[i]) * dq + bias[k]);
              }

              const void* in = u8_in ? static_cast<const void*>(q.data()) : in32.data();
              std::vector<float> nchw(out_n);
              conv.execute_typed(in, nchw.data(), &pool, PostOps{.relu = true});
              EXPECT_EQ(0, std::memcmp(nchw.data(), want.data(), out_n * sizeof(float)));

              const BlockedActLayout in_l(d.batch, c, d.height, d.width);
              const BlockedActLayout out_l(d.batch, K, oh, ow);
              std::vector<std::uint8_t> in_b(in_l.size() * (u8_in ? 1 : sizeof(float)));
              relayout(u8_in ? DType::kU8 : DType::kF32, ActLayout::kBlocked64, in, d.batch, c,
                       d.height, d.width, in_b.data());
              std::vector<float> out_b(out_l.size()), blocked(out_n);
              conv.execute_blocked_typed(in_b.data(), out_b.data(), &pool,
                                         PostOps{.relu = true});
              relayout(DType::kF32, ActLayout::kNchw, out_b.data(), d.batch, K, oh, ow,
                       blocked.data());
              EXPECT_EQ(0, std::memcmp(blocked.data(), want.data(), out_n * sizeof(float)));

              // A one-image prefix writes image 0's bytes and leaves image 1's.
              std::vector<float> prefix(out_l.size(), -7.0f);
              conv.execute_blocked_typed(in_b.data(), prefix.data(), &pool,
                                         PostOps{.relu = true}, 1);
              const std::size_t image = out_l.size() / d.batch;
              EXPECT_EQ(0, std::memcmp(prefix.data(), out_b.data(), image * sizeof(float)));
              EXPECT_TRUE(std::all_of(prefix.begin() + image, prefix.end(),
                                      [](float v) { return v == -7.0f; }));
            }
          }
        }
      }
    }
  }
}

/// Restores CPU feature detection when a test that forces the scalar paths
/// ends, however it ends.
struct RestoreCpuFeatures {
  ~RestoreCpuFeatures() { override_cpu_features_for_test(nullptr); }
};

TEST(BlockedDirect, Int8DepthwiseScalarPathMatchesTheVnniKernel) {
  // The path for CPUs without AVX-512 VNNI (forced through the CPU feature
  // override) against the VNNI kernel, on FP32 and u8 outputs with an FP32
  // residual and ReLU.
  RestoreCpuFeatures restore;
  static const CpuFeatures kNone;
  ThreadPool pool(2);
  unsigned seed = 800;
  for (const std::size_t c : {24, 40, 96}) {
    for (const std::size_t mult : {1, 2}) {
      for (const std::size_t r : {3, 5}) {
        for (const std::size_t stride : {1, 2}) {
          for (const bool out_u8 : {false, true}) {
            const ConvDesc d = blocked_desc(c, mult * c, r, stride, c);
            SCOPED_TRACE(::testing::Message() << d.to_string() << " out_u8=" << out_u8);
            const std::size_t K = d.out_channels, oh = d.out_height(), ow = d.out_width();
            const BlockedActLayout in_l(d.batch, c, d.height, d.width);
            const BlockedActLayout out_l(d.batch, K, oh, ow);
            Rng rng(++seed);
            std::vector<float> in32(d.batch * c * d.height * d.width), w(K * r * r), bias(K);
            std::vector<float> res(d.batch * K * oh * ow);
            for (auto& v : in32) v = rng.uniform(-1.5f, 1.5f);
            for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
            for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);
            for (auto& v : res) v = rng.uniform(-1.0f, 1.0f);
            std::vector<float> in_b(in_l.size()), res_b(out_l.size());
            relayout(DType::kF32, ActLayout::kBlocked64, in32.data(), d.batch, c, d.height,
                     d.width, in_b.data());
            relayout(DType::kF32, ActLayout::kBlocked64, res.data(), d.batch, K, oh, ow,
                     res_b.data());
            Int8DepthwiseConv conv(d);
            conv.set_input_threshold(1.25f);
            conv.set_filters(w, bias);
            if (out_u8) conv.set_output_u8(QuantParams::from_threshold(2.0f));
            const PostOps post{.relu = true, .sum = res_b.data()};
            const std::size_t bytes = out_l.size() * (out_u8 ? 1 : sizeof(float));
            std::vector<std::uint8_t> vnni(bytes, 0xAB), scalar(bytes, 0xCD);
            conv.execute_blocked_typed(in_b.data(), vnni.data(), &pool, post);
            override_cpu_features_for_test(&kNone);
            conv.execute_blocked_typed(in_b.data(), scalar.data(), &pool, post);
            override_cpu_features_for_test(nullptr);
            EXPECT_TRUE(vnni == scalar);
          }
        }
      }
    }
  }
}

TEST(BlockedDirect, Int8DirectScalarPathMatchesTheVnniTile) {
  // The path for CPUs without AVX-512 VNNI (forced through the CPU feature
  // override) against the VNNI register tile, byte for byte. K = 24, 40, 80
  // and 128 give blocks of 2, 3, 4 (+ 1) and 4 + 4 live 16-lane groups; C =
  // 24 and 64 on a u8 input at r = 1, stride 1 run the in-place pointwise
  // case, the rest gather patch rows. The 9 x 7 map has 63 pixels (20 at
  // stride 2), the 2 x 2 map 4 (1) and the 1 x 5 map 5 (3): whole tiles and
  // row tails of 1 to 5 pixels.
  // FP32 and u8 inputs and outputs, each output with an FP32 and a u8
  // residual, the one of the output's dtype aliasing the output, and ReLU.
  RestoreCpuFeatures restore;
  static const CpuFeatures kNone;
  ThreadPool pool(2);
  constexpr float kResInvScale = 0.02f;
  constexpr std::pair<std::size_t, std::size_t> kMaps[] = {{9, 7}, {2, 2}, {1, 5}};
  unsigned seed = 900;
  for (const std::size_t c : {24, 64, 96}) {
    for (const std::size_t k : {24, 40, 80, 128}) {
      for (const std::size_t r : {1, 3}) {
        for (const std::size_t stride : {1, 2}) {
          for (const auto& [map_h, map_w] : kMaps) {
            ConvDesc d = blocked_desc(c, k, r, stride, 1);
            d.height = map_h;
            d.width = map_w;
            const std::size_t oh = d.out_height(), ow = d.out_width();
            const std::size_t in_n = d.batch * c * d.height * d.width;
            const std::size_t out_n = d.batch * k * oh * ow;
            const BlockedActLayout in_l(d.batch, c, d.height, d.width);
            const BlockedActLayout out_l(d.batch, k, oh, ow);
            Rng rng(++seed);
            std::vector<float> in32(in_n), w(k * c * r * r), bias(k), res32(out_n);
            std::vector<std::uint8_t> in8(in_n), res8(out_n);
            for (auto& v : in32) v = rng.uniform(-1.5f, 1.5f);
            for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
            for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);
            for (auto& v : res32) v = rng.uniform(-1.0f, 1.0f);
            for (auto& v : in8) v = static_cast<std::uint8_t>(rng.next_u64());
            for (auto& v : res8) v = static_cast<std::uint8_t>(rng.next_u64());
            std::vector<float> in32_b(in_l.size()), res32_b(out_l.size());
            std::vector<std::uint8_t> in8_b(in_l.size()), res8_b(out_l.size());
            relayout(DType::kF32, ActLayout::kBlocked64, in32.data(), d.batch, c, d.height,
                     d.width, in32_b.data());
            relayout(DType::kU8, ActLayout::kBlocked64, in8.data(), d.batch, c, d.height,
                     d.width, in8_b.data());
            relayout(DType::kF32, ActLayout::kBlocked64, res32.data(), d.batch, k, oh, ow,
                     res32_b.data());
            relayout(DType::kU8, ActLayout::kBlocked64, res8.data(), d.batch, k, oh, ow,
                     res8_b.data());
            for (const bool in_u8 : {false, true}) {
              for (const bool out_u8 : {false, true}) {
                for (const bool res_u8 : {false, true}) {
                  SCOPED_TRACE(::testing::Message() << d.to_string() << " in_u8=" << in_u8
                                                    << " out_u8=" << out_u8
                                                    << " res_u8=" << res_u8);
                  Int8DirectConv conv(d);
                  conv.set_input_threshold(1.25f);
                  conv.set_filters(w, bias);
                  if (in_u8) conv.set_input_u8(QuantParams::from_threshold(2.0f));
                  if (out_u8) conv.set_output_u8(QuantParams::from_threshold(2.0f));
                  const void* in = in_u8 ? static_cast<const void*>(in8_b.data()) : in32_b.data();
                  const std::size_t bytes = out_l.size() * (out_u8 ? 1 : sizeof(float));
                  const bool aliased = res_u8 == out_u8;
                  const auto run = [&] {
                    std::vector<std::uint8_t> out(bytes, 0xAB);
                    if (aliased) {
                      std::memcpy(out.data(),
                                  out_u8 ? static_cast<const void*>(res8_b.data())
                                         : res32_b.data(),
                                  bytes);
                    }
                    PostOps post{.relu = true};
                    if (res_u8) {
                      post.sum_u8 = aliased ? out.data() : res8_b.data();
                      post.sum_u8_inv_scale = kResInvScale;
                    } else {
                      post.sum = aliased ? reinterpret_cast<const float*>(out.data())
                                         : res32_b.data();
                    }
                    conv.execute_blocked_typed(in, out.data(), &pool, post);
                    return out;
                  };
                  const std::vector<std::uint8_t> vnni = run();
                  override_cpu_features_for_test(&kNone);
                  const std::vector<std::uint8_t> scalar = run();
                  override_cpu_features_for_test(nullptr);
                  EXPECT_TRUE(vnni == scalar);
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(BlockedDirect, RequantEpilogueFollowsTheU8ContractOnNonFiniteResiduals) {
  // An FP32 residual holding NaN, +-Inf and +-FLT_MAX, through each direct
  // engine's blocked core with a u8 output: every poisoned element encodes
  // as the u8 hand-off contract says (NaN -> 128, +-Inf and +-FLT_MAX
  // saturate; after a ReLU every one but +Inf and +FLT_MAX is 0 -> 128), and
  // every other element keeps the bytes of a run with a finite residual.
  const float inf = std::numeric_limits<float>::infinity();
  const float big = std::numeric_limits<float>::max();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), inf, -inf, big, -big};
  // The bytes each special encodes to, without and with the ReLU.
  static constexpr std::uint8_t kSpecialBytes[2][5] = {{128, 255, 0, 255, 0},
                                                       {128, 255, 128, 255, 128}};
  ThreadPool pool(2);
  const std::pair<EngineKind, ConvDesc> cases[] = {
      {EngineKind::kInt8Direct, blocked_desc(40, 40, 3, 1, 1)},
      {EngineKind::kInt8Direct, blocked_desc(40, 40, 1, 1, 1)},
      {EngineKind::kInt8Depthwise, blocked_desc(40, 40, 3, 1, 40)},
  };
  for (const auto& [kind, d] : cases) {
    const std::size_t K = d.out_channels, oh = d.out_height(), ow = d.out_width();
    const std::size_t in_n = d.batch * d.in_channels * d.height * d.width;
    const std::size_t out_n = d.batch * K * oh * ow;
    const BlockedActLayout in_l(d.batch, d.in_channels, d.height, d.width);
    const BlockedActLayout out_l(d.batch, K, oh, ow);
    Rng rng(700);
    std::vector<float> in32(in_n), res(out_n), bias(K);
    std::vector<float> w(K * d.group_in_channels() * d.kernel * d.kernel);
    for (auto& v : in32) v = rng.uniform(-1.5f, 1.5f);
    for (auto& v : res) v = rng.uniform(-1.0f, 1.0f);
    for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);
    for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
    std::vector<float> poisoned = res;
    for (std::size_t i = 0; i < out_n; i += 7) poisoned[i] = specials[i / 7 % 5];
    std::vector<float> in_b(in_l.size()), res_b(out_l.size()), poisoned_b(out_l.size());
    relayout(DType::kF32, ActLayout::kBlocked64, in32.data(), d.batch, d.in_channels, d.height,
             d.width, in_b.data());
    relayout(DType::kF32, ActLayout::kBlocked64, res.data(), d.batch, K, oh, ow, res_b.data());
    relayout(DType::kF32, ActLayout::kBlocked64, poisoned.data(), d.batch, K, oh, ow,
             poisoned_b.data());
    for (const bool relu : {false, true}) {
      SCOPED_TRACE(::testing::Message() << engine_token(kind) << " " << d.to_string()
                                        << " relu=" << relu);
      std::unique_ptr<ConvEngine> e = make_conv_engine(kind, d);
      e->calibrate(in32);
      e->finalize_calibration();
      e->set_filters(w, bias);
      e->set_output_u8(QuantParams::from_threshold(2.0f));
      const auto run = [&](const std::vector<float>& residual) {
        std::vector<std::uint8_t> out_b(out_l.size()), out(out_n);
        e->run_blocked(in_b.data(), out_b.data(), &pool,
                       PostOps{.relu = relu, .sum = residual.data()});
        relayout(DType::kU8, ActLayout::kNchw, out_b.data(), d.batch, K, oh, ow, out.data());
        return out;
      };
      const std::vector<std::uint8_t> clean = run(res_b), got = run(poisoned_b);
      for (std::size_t i = 0; i < out_n; ++i) {
        const std::uint8_t want = i % 7 != 0 ? clean[i] : kSpecialBytes[relu][i / 7 % 5];
        ASSERT_EQ(got[i], want) << "element " << i << " residual " << poisoned[i];
      }
    }
  }
}

TEST(BlockedDirect, Int8DirectPointwiseU8MatchesExactOracle) {
  // r = 1 with u8 input and output, as a served chain runs it: C = 24 and 64
  // at stride 1 multiply the input in place; C = 65 and 96 (two channel
  // blocks) and stride 2 copy pixel rows into the panel. Each runs with no
  // residual and with a u8 residual aliasing the output, and 11 x 13 pixels
  // span two row chunks. The blocked core's bytes must equal the oracle's
  // exact sums pushed through the epilogue (v = acc * dq + bias, + residual,
  // ReLU, requant), so an in-place condition widened to C = 65 or stride 2
  // multiplies the wrong bytes and fails here.
  ThreadPool pool(2);
  const QuantParams in_qp = QuantParams::from_threshold(2.0f);
  const QuantParams out_qp = QuantParams::from_threshold(3.0f);
  constexpr float kResInvScale = 0.02f;
  unsigned seed = 500;
  for (const std::size_t c : {24, 64, 65, 96}) {
    for (const std::size_t stride : {1, 2}) {
      ConvDesc d = blocked_desc(c, 40, 1, stride, 1);
      d.height = 11;
      d.width = 13;
      const std::size_t K = d.out_channels, oh = d.out_height(), ow = d.out_width();
      const std::size_t out_n = d.batch * K * oh * ow;
      Rng rng(++seed);
      std::vector<float> w(K * c), bias(K);
      std::vector<std::uint8_t> q(d.batch * c * d.height * d.width), res(out_n);
      for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
      for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);
      for (auto& v : q) v = static_cast<std::uint8_t>(rng.next_u64());
      for (auto& v : res) v = static_cast<std::uint8_t>(rng.next_u64());

      Int8DirectConv conv(d);
      conv.set_input_threshold(1.25f);
      conv.set_filters(w, bias);
      conv.set_input_u8(in_qp);
      conv.set_output_u8(out_qp);
      const ExactInt8Direct x = exact_int8_direct(d, w, q);

      const BlockedActLayout in_l(d.batch, c, d.height, d.width), out_l(d.batch, K, oh, ow);
      std::vector<std::uint8_t> in_b(in_l.size()), res_b(out_l.size());
      relayout(DType::kU8, ActLayout::kBlocked64, q.data(), d.batch, c, d.height, d.width,
               in_b.data());
      relayout(DType::kU8, ActLayout::kBlocked64, res.data(), d.batch, K, oh, ow, res_b.data());
      for (const bool residual : {false, true}) {
        SCOPED_TRACE(::testing::Message() << d.to_string() << " residual=" << residual);
        std::vector<std::uint8_t> want(out_n);
        for (std::size_t i = 0; i < out_n; ++i) {
          const std::size_t k = i / (oh * ow) % K;
          const float dq = 1.0f / (conv.input_scale() * x.w_scale[k]);
          float v = static_cast<float>(x.acc[i]) * dq + bias[k];
          if (residual) v += static_cast<float>(static_cast<int>(res[i]) - 128) * kResInvScale;
          v = std::max(0.0f, v);
          quantize_u8_shift128({&v, 1}, out_qp.scale, {&want[i], 1});
        }
        std::vector<std::uint8_t> out_b =
            residual ? res_b : std::vector<std::uint8_t>(out_l.size());
        PostOps post{.relu = true};
        if (residual) {
          post.sum_u8 = out_b.data();
          post.sum_u8_inv_scale = kResInvScale;
        }
        conv.execute_blocked_typed(in_b.data(), out_b.data(), &pool, post);
        std::vector<std::uint8_t> got(out_n);
        relayout(DType::kU8, ActLayout::kNchw, out_b.data(), d.batch, K, oh, ow, got.data());
        EXPECT_TRUE(got == want);
      }
    }
  }
}

// --- Prefix-batch execution ---------------------------------------------------

/// Every prefix 1..B-1 through the ConvEngine entry points against the
/// whole-batch run, byte for byte: run() on FP32 with an FP32 residual,
/// run_typed() with u8 input, output and residual, and — on blocked-I/O
/// engines — run_blocked() with a residual aliasing the output. Images past
/// the prefix must keep their canary (or, aliased, their residual) bytes.
void expect_engine_prefix_runs_exact(EngineKind kind, const ConvDesc& d, unsigned seed,
                                     ThreadPool& pool) {
  SCOPED_TRACE(::testing::Message() << engine_token(kind) << " " << d.to_string());
  const std::size_t B = d.batch, K = d.out_channels, oh = d.out_height(), ow = d.out_width();
  const std::size_t in_n = B * d.in_channels * d.height * d.width;
  const std::size_t out_n = B * K * oh * ow;
  Rng rng(seed);
  std::vector<float> in32(in_n), res32(out_n), bias(K);
  std::vector<float> w(K * d.group_in_channels() * d.kernel * d.kernel);
  std::vector<std::uint8_t> in8(in_n), res8(out_n);
  for (auto& v : in32) v = rng.uniform(-1.5f, 1.5f);
  for (auto& v : res32) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);
  for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : in8) v = static_cast<std::uint8_t>(rng.next_u64());
  for (auto& v : res8) v = static_cast<std::uint8_t>(rng.next_u64());

  // `run(out, images)` writes a whole-batch buffer of `bytes` bytes, seeded
  // from `seed_bytes` (a canary, or the aliased residual).
  const auto check = [&](std::size_t bytes, const std::vector<std::uint8_t>& seed_bytes,
                         const auto& run) {
    std::vector<std::uint8_t> want = seed_bytes;
    run(want.data(), kAllImages);
    for (std::size_t n = 1; n < B; ++n) {
      std::vector<std::uint8_t> got = seed_bytes;
      run(got.data(), n);
      const std::size_t image = bytes / B;
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n * image)) << "n=" << n;
      EXPECT_EQ(0, std::memcmp(got.data() + n * image, seed_bytes.data() + n * image,
                               bytes - n * image))
          << "images past the prefix were written, n=" << n;
    }
  };

  std::unique_ptr<ConvEngine> e = make_conv_engine(kind, d);
  e->calibrate(in32);
  e->finalize_calibration();
  e->set_filters(w, bias);
  const std::vector<std::uint8_t> canary32(out_n * sizeof(float), 0xA5);
  check(canary32.size(), canary32, [&](std::uint8_t* out, std::size_t images) {
    e->run(in32, {reinterpret_cast<float*>(out), out_n}, &pool, PostOps{true, res32.data()},
           images);
  });
  std::vector<float> out(out_n);
  EXPECT_THROW(e->run(in32, out, &pool, {}, 0), std::invalid_argument);
  EXPECT_THROW(e->run(in32, out, &pool, {}, B + 1), std::invalid_argument);

  e->set_input_u8(QuantParams::from_threshold(1.0f));
  e->set_output_u8(QuantParams::from_threshold(2.0f));
  PostOps post8;
  post8.sum_u8 = res8.data();
  post8.sum_u8_inv_scale = 0.02f;
  const std::vector<std::uint8_t> canary8(out_n, 0xA5);
  check(out_n, canary8, [&](std::uint8_t* out8, std::size_t images) {
    e->run_typed(in8.data(), out8, &pool, post8, images);
  });

  if (!engine_caps(kind, d).blocked_io) return;
  const BlockedActLayout in_l(B, d.in_channels, d.height, d.width), out_l(B, K, oh, ow);
  std::vector<std::uint8_t> in_b(in_l.size()), res_b(out_l.size());
  relayout(DType::kU8, ActLayout::kBlocked64, in8.data(), B, d.in_channels, d.height, d.width,
           in_b.data());
  relayout(DType::kU8, ActLayout::kBlocked64, res8.data(), B, K, oh, ow, res_b.data());
  check(res_b.size(), res_b, [&](std::uint8_t* out_b, std::size_t images) {
    PostOps alias = post8;
    alias.relu = true;
    alias.sum_u8 = out_b;
    e->run_blocked(in_b.data(), out_b, &pool, alias, images);
  });
}

ConvDesc prefix_desc(std::size_t c, std::size_t k, std::size_t r, std::size_t stride,
                     std::size_t groups) {
  ConvDesc d = blocked_desc(c, k, r, stride, groups);
  d.batch = 3;
  return d;
}

TEST(PrefixRun, EngineInt8Direct) {
  // run_blocked included: C = 3 gathers one padded block per tap, C = 96 at
  // stride 2 two blocks per tap.
  ThreadPool pool(4);
  expect_engine_prefix_runs_exact(EngineKind::kInt8Direct, make_desc(3, 24, 40, 9), 31, pool);
  expect_engine_prefix_runs_exact(EngineKind::kInt8Direct, prefix_desc(3, 40, 3, 1, 1), 32,
                                  pool);
  expect_engine_prefix_runs_exact(EngineKind::kInt8Direct, prefix_desc(96, 130, 3, 2, 1), 33,
                                  pool);
}

TEST(PrefixRun, EngineInt8DirectPointwise) {
  // r = 1: C = 32 multiplies u8 input in place; C = 96 at stride 2 copies
  // pixel rows into the panel.
  ThreadPool pool(4);
  expect_engine_prefix_runs_exact(EngineKind::kInt8Direct, prefix_desc(32, 40, 1, 1, 1), 41,
                                  pool);
  expect_engine_prefix_runs_exact(EngineKind::kInt8Direct, prefix_desc(96, 130, 1, 2, 1), 42,
                                  pool);
}

TEST(PrefixRun, EngineInt8Depthwise) {
  ThreadPool pool(4);
  expect_engine_prefix_runs_exact(EngineKind::kInt8Depthwise, prefix_desc(32, 32, 3, 1, 32), 51,
                                  pool);
  expect_engine_prefix_runs_exact(EngineKind::kInt8Depthwise, prefix_desc(96, 192, 3, 2, 96),
                                  52, pool);
}

// --- ConvF32Blocked: the blocked FP32 conv against the NCHW one --------------

struct F32BlockedCase {
  ConvDesc desc;
  std::vector<float> input, weights, bias, sum_nchw, sum_blocked;
  bool relu = false;
  std::vector<float> ref;  ///< conv_f32_forward's NCHW output

  PostOps post_nchw() const { return {relu, sum_nchw.empty() ? nullptr : sum_nchw.data()}; }
  PostOps post_blocked() const {
    return {relu, sum_blocked.empty() ? nullptr : sum_blocked.data()};
  }
  std::size_t out_elems() const {
    return BlockedActLayout(desc.batch, desc.out_channels, desc.out_height(), desc.out_width())
        .size();
  }
};

/// t.ref = conv_f32_forward of the case.
void fill_nchw_reference(F32BlockedCase& t) {
  ConvF32Scratch scratch;
  t.ref.assign(t.desc.batch * t.desc.out_channels * t.desc.out_height() * t.desc.out_width(),
               0.0f);
  conv_f32_forward(t.desc, t.input, t.weights, t.bias, t.ref, scratch, t.post_nchw());
}

F32BlockedCase f32_blocked_case(std::size_t c, std::size_t k, std::size_t r, std::size_t stride,
                                bool relu, bool sum, unsigned seed, std::size_t batch = 2) {
  F32BlockedCase t;
  t.desc = make_desc(batch, c, k, 9, r, r / 2);
  t.desc.stride = stride;
  t.relu = relu;
  Rng rng(seed);
  t.input.resize(batch * c * 81);
  t.weights.resize(k * c * r * r);
  t.bias.resize(k);
  for (auto& v : t.input) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : t.weights) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : t.bias) v = rng.uniform(-0.2f, 0.2f);
  const std::size_t oh = t.desc.out_height(), ow = t.desc.out_width();
  if (sum) {
    t.sum_nchw.resize(batch * k * oh * ow);
    for (auto& v : t.sum_nchw) v = rng.uniform(-1.0f, 1.0f);
    t.sum_blocked.resize(t.out_elems());
    relayout(DType::kF32, ActLayout::kBlocked64, t.sum_nchw.data(), batch, k, oh, ow,
             t.sum_blocked.data());
  }
  fill_nchw_reference(t);
  return t;
}

/// Runs the blocked path on `t` and checks, byte for byte over the whole
/// blocked buffer (padding lanes included), that its FP32 output is t.ref
/// relayouted and its u8 output is t.ref's quantize_u8_shift128 at `qp`.
void expect_blocked_matches_nchw(const F32BlockedCase& t, const QuantParams& qp) {
  const ConvDesc& d = t.desc;
  const std::size_t oh = d.out_height(), ow = d.out_width(), K = d.out_channels;
  ConvF32Scratch scratch;
  std::vector<float> want_f(t.out_elems()), got_f(t.out_elems(), -1.0f);
  relayout(DType::kF32, ActLayout::kBlocked64, t.ref.data(), d.batch, K, oh, ow, want_f.data());
  conv_f32_blocked(d, t.input.data(), t.weights, t.bias, got_f.data(), scratch, t.post_blocked());
  EXPECT_EQ(0, std::memcmp(got_f.data(), want_f.data(), want_f.size() * sizeof(float)));

  std::vector<std::uint8_t> q(t.ref.size()), want_u8(t.out_elems()), got_u8(t.out_elems(), 7);
  quantize_u8_shift128(t.ref, qp.scale, q);
  relayout(DType::kU8, ActLayout::kBlocked64, q.data(), d.batch, K, oh, ow, want_u8.data());
  conv_f32_blocked(d, t.input.data(), t.weights, t.bias, got_u8.data(), scratch,
                   t.post_blocked(), &qp);
  EXPECT_EQ(0, std::memcmp(got_u8.data(), want_u8.data(), want_u8.size()));
}

TEST(ConvF32Blocked, MatchesTheNchwPathByteForByte) {
  // FP32 blocked output bit-identical to the NCHW path, u8 output equal to
  // its quantization at an edge scale that clips the top 20%: C = 1 and 3
  // (the stems), 48 and 64; K = 24 and 96 (a partial 16-lane group and block),
  // 32 (padding-only groups skipped) and 64; r = 1, 3, 5; stride 1 and 2;
  // ReLU off and on; no residual and an FP32 one. The 9 x 9 image leaves a
  // partial pixel tile at every stride.
  unsigned seed = 1;
  for (const std::size_t c : {1, 3, 48, 64}) {
    for (const std::size_t k : {24, 32, 64, 96}) {
      for (const std::size_t r : {1, 3, 5}) {
        for (const std::size_t stride : {1, 2}) {
          for (const bool relu : {false, true}) {
            for (const bool sum : {false, true}) {
              SCOPED_TRACE(::testing::Message() << "C" << c << " K" << k << " r" << r << " s"
                                              << stride << " relu " << relu << " sum " << sum);
              const F32BlockedCase t = f32_blocked_case(c, k, r, stride, relu, sum, seed++);
              expect_blocked_matches_nchw(
                  t, QuantParams::from_threshold(0.8f * std::max(abs_max(t.ref), 1e-3f)));
            }
          }
        }
      }
    }
  }
}

TEST(ConvF32Blocked, NonFinitePixelsFollowTheRequantContract) {
  // NaN, +-Inf and FLT_MAX pixels: the FP32 output keeps the NCHW path's bits
  // and the u8 output is quantize_u8_shift128 of it — NaN stores 128, +-Inf
  // saturate — with the padding lanes still quantized zero.
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max()};
  for (const bool relu : {false, true}) {
    for (const float special : specials) {
      SCOPED_TRACE(::testing::Message() << "pixel " << special << " relu " << relu);
      F32BlockedCase t = f32_blocked_case(1, 24, 3, 1, relu, false, 91);
      for (std::size_t i = 0; i < t.input.size(); i += 7) t.input[i] = special;
      fill_nchw_reference(t);
      const QuantParams qp = QuantParams::from_threshold(2.0f);
      expect_blocked_matches_nchw(t, qp);
      // The contract itself, on the reference bytes: NaN outputs store 128;
      // infinite ones, and finite ones whose scaled value overflows int32,
      // saturate.
      std::vector<std::uint8_t> q(t.ref.size());
      quantize_u8_shift128(t.ref, qp.scale, q);
      std::size_t extreme = 0;
      for (std::size_t i = 0; i < q.size(); ++i) {
        if (std::isfinite(t.ref[i]) && std::abs(t.ref[i] * qp.scale) < 1e10f) continue;
        ++extreme;
        ASSERT_EQ(q[i], std::isnan(t.ref[i]) ? 128 : t.ref[i] > 0.0f ? 255 : 0) << i;
      }
      // A fused ReLU maps NaN to 0, as std::max(0.0f, NaN) does.
      if (!(relu && std::isnan(special))) {
        EXPECT_GT(extreme, 0u);
      }
    }
  }
}

TEST(ConvF32Blocked, PaddingLanesHoldQuantizedZero) {
  // K = 24: lanes 24..31 share a computed group with real channels, lanes
  // 32..63 are whole padding groups. NaN input must not leak into either.
  F32BlockedCase t = f32_blocked_case(3, 24, 3, 1, false, false, 5);
  t.input[0] = std::numeric_limits<float>::quiet_NaN();
  const QuantParams qp = QuantParams::from_threshold(1.0f);
  ConvF32Scratch scratch;
  std::vector<float> f(t.out_elems(), -1.0f);
  std::vector<std::uint8_t> q(t.out_elems(), 7);
  conv_f32_blocked(t.desc, t.input.data(), t.weights, t.bias, f.data(), scratch);
  conv_f32_blocked(t.desc, t.input.data(), t.weights, t.bias, q.data(), scratch, {}, &qp);
  for (std::size_t px = 0; px < t.out_elems() / kChanBlock; ++px) {
    for (std::size_t l = 24; l < kChanBlock; ++l) {
      ASSERT_EQ(f[px * kChanBlock + l], 0.0f) << "pixel " << px << " lane " << l;
      ASSERT_EQ(q[px * kChanBlock + l], 128) << "pixel " << px << " lane " << l;
    }
  }
}

TEST(ConvF32Blocked, PrefixRunLeavesLaterImagesUntouched) {
  // desc.batch = images < B computes exactly the leading images (the bytes
  // of a whole-batch run) and never writes past them.
  for (const bool u8 : {false, true}) {
    F32BlockedCase t = f32_blocked_case(3, 96, 3, 2, true, true, 17, /*batch=*/3);
    const QuantParams qp = QuantParams::from_threshold(1.5f);
    const std::size_t bytes = t.out_elems() * (u8 ? 1 : sizeof(float));
    const std::size_t image_bytes = bytes / 3;
    ConvF32Scratch scratch;
    std::vector<std::uint8_t> full(bytes);
    conv_f32_blocked(t.desc, t.input.data(), t.weights, t.bias, full.data(), scratch,
                     t.post_blocked(), u8 ? &qp : nullptr);
    for (std::size_t images = 1; images < 3; ++images) {
      ConvDesc d = t.desc;
      d.batch = images;
      std::vector<std::uint8_t> got(bytes, 0xA5);
      conv_f32_blocked(d, t.input.data(), t.weights, t.bias, got.data(), scratch,
                       t.post_blocked(), u8 ? &qp : nullptr);
      EXPECT_EQ(0, std::memcmp(got.data(), full.data(), images * image_bytes))
          << images << " image(s), u8 " << u8;
      EXPECT_TRUE(std::all_of(got.begin() + images * image_bytes, got.end(),
                              [](std::uint8_t b) { return b == 0xA5; }))
          << images << " image(s), u8 " << u8;
    }
  }
}

TEST(ConvF32Blocked, RejectsGroupedShapes) {
  ConvDesc d = make_desc(1, 8, 8, 6);
  d.groups = 8;
  std::vector<float> in(8 * 36), w(8 * 9), b(8), out(64 * 36);
  ConvF32Scratch scratch;
  EXPECT_THROW(conv_f32_blocked(d, in.data(), w, b, out.data(), scratch), std::invalid_argument);
}

}  // namespace
}  // namespace lowino
