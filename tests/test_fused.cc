// Differential tests of the fused streaming execution path against the staged
// pipeline (the oracle). The two modes share every block-level compute body,
// so they must agree bit-for-bit — any mismatch is an indexing bug, not
// round-off.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "lowino/lowino.h"
#include "parallel/thread_pool.h"
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
  std::vector<float> input, weights, bias;
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
  return p;
}

std::vector<float> run_mode(const ConvDesc& desc, std::size_t m, ExecutionMode mode,
                            const Problem& p, ThreadPool* pool, bool relu = false) {
  LoWinoConfig cfg;
  cfg.m = m;
  cfg.execution_mode = mode;
  LoWinoConvolution conv(desc, cfg);
  conv.set_uniform_input_threshold(2.0f);
  conv.set_filters(p.weights, p.bias);
  std::vector<float> out(desc.batch * desc.out_channels * desc.out_height() *
                         desc.out_width());
  conv.execute_nchw(p.input, out, pool, PostOps{.relu = relu});
  EXPECT_EQ(conv.last_execution_mode(), mode);
  return out;
}

std::size_t count_mismatches(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit comparison: catches -0.0f vs 0.0f divergence a value compare hides.
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) ++bad;
  }
  return bad;
}

// --- Differential matrix ----------------------------------------------------
class FusedDifferential : public ::testing::TestWithParam<std::tuple<ConvDesc, int>> {};

TEST_P(FusedDifferential, BitIdenticalToStaged) {
  const auto [desc, m] = GetParam();
  const Problem p = make_problem(desc, 900 + m);
  // Pool sizes: serial, small, oversubscribed (more threads than n-blocks on
  // the tiny shapes — exercises workers with empty partitions).
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{5}}) {
    ThreadPool pool(threads == 0 ? 1 : threads);
    ThreadPool* pp = threads == 0 ? nullptr : &pool;
    const std::vector<float> staged =
        run_mode(desc, static_cast<std::size_t>(m), ExecutionMode::kStaged, p, pp);
    const std::vector<float> fused =
        run_mode(desc, static_cast<std::size_t>(m), ExecutionMode::kFused, p, pp);
    EXPECT_EQ(count_mismatches(staged, fused), 0u)
        << desc.to_string() << " m=" << m << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedDifferential,
    ::testing::Combine(
        ::testing::Values(make_desc(1, 64, 64, 14),          // canonical small
                          make_desc(2, 64, 64, 7),           // batch > 1
                          make_desc(1, 192, 128, 10),        // multiple C blocks
                          make_desc(1, 64, 64, 13),          // odd spatial + halo
                          make_desc(1, 100, 80, 8),          // non-64-multiple C/K
                          make_desc(1, 64, 64, 12, 3, 0),    // no padding
                          make_desc(1, 64, 64, 9, 2, 1)),    // r = 2 kernel
        ::testing::Values(2, 4, 6)));

TEST(FusedDifferential, ReluAndBiasAgree) {
  const ConvDesc d = make_desc(1, 64, 96, 12);
  const Problem p = make_problem(d, 77);
  ThreadPool pool(2);
  const auto staged = run_mode(d, 4, ExecutionMode::kStaged, p, &pool, /*relu=*/true);
  const auto fused = run_mode(d, 4, ExecutionMode::kFused, p, &pool, /*relu=*/true);
  EXPECT_EQ(count_mismatches(staged, fused), 0u);
}

TEST(FusedDifferential, CalibratedScalesAgree) {
  // Per-position calibrated scales (not the uniform-threshold shortcut).
  const ConvDesc d = make_desc(1, 64, 64, 10);
  const Problem p = make_problem(d, 31);
  std::vector<float> outs[2];
  for (int i = 0; i < 2; ++i) {
    LoWinoConfig cfg;
    cfg.m = 4;
    cfg.execution_mode = i == 0 ? ExecutionMode::kStaged : ExecutionMode::kFused;
    LoWinoConvolution conv(d, cfg);
    conv.calibrate(p.input);
    conv.finalize_calibration();
    conv.set_filters(p.weights, p.bias);
    outs[i].resize(d.batch * d.out_channels * d.out_height() * d.out_width());
    conv.execute_nchw(p.input, outs[i]);
  }
  EXPECT_EQ(count_mismatches(outs[0], outs[1]), 0u);
}

// --- kAuto resolution -------------------------------------------------------
TEST(ExecutionModeAuto, SizeRulePicksMode) {
  // The rule has no knob: fused exactly when the staged V + Z bytes exceed
  // num_threads x L2. A batch-1 8x8 layer stays far below any L2; a batch-16
  // 64x64 layer materializes ~47 MB of V + Z.
  LoWinoConfig cfg;
  cfg.m = 4;
  const ConvDesc small = make_desc(1, 64, 64, 8);
  const ConvDesc large = make_desc(16, 64, 64, 64);
  LoWinoConvolution conv(small, cfg);
  EXPECT_EQ(conv.resolve_execution_mode(1), ExecutionMode::kStaged);
  EXPECT_EQ(LoWinoConvolution(large, cfg).resolve_execution_mode(1), ExecutionMode::kFused);

  const Problem p = make_problem(small, 8);
  conv.set_uniform_input_threshold(2.0f);
  conv.set_filters(p.weights, p.bias);
  std::vector<float> out(small.batch * small.out_channels * small.out_height() *
                         small.out_width());
  conv.execute_nchw(p.input, out);
  EXPECT_EQ(conv.last_execution_mode(), ExecutionMode::kStaged);
}

TEST(ExecutionModeAuto, ThresholdScalesWithThreadCount) {
  // The threshold is num_threads x L2: the fewest threads whose aggregate L2
  // holds the staged V + Z keep the layer staged, one thread fewer fuses it.
  LoWinoConfig cfg;
  cfg.m = 4;
  const LoWinoConvolution conv(make_desc(16, 64, 64, 64), cfg);
  const std::size_t staged = conv.workspace_bytes(ExecutionMode::kStaged, 1);
  const std::size_t l2 = l2_cache_bytes();
  ASSERT_GT(l2, 0u);
  const std::size_t fit = (staged + l2 - 1) / l2;
  ASSERT_GE(fit, 2u);
  EXPECT_EQ(conv.resolve_execution_mode(fit), ExecutionMode::kStaged);
  EXPECT_EQ(conv.resolve_execution_mode(fit - 1), ExecutionMode::kFused);
  // An explicit mode is never re-resolved, at any thread count.
  cfg.execution_mode = ExecutionMode::kStaged;
  EXPECT_EQ(LoWinoConvolution(make_desc(16, 64, 64, 64), cfg).resolve_execution_mode(1),
            ExecutionMode::kStaged);
}

// --- Workspace accounting ---------------------------------------------------
TEST(FusedWorkspaceBytes, IndependentOfTileCount) {
  // Same channels/blocking, 4x the tiles: staged workspace scales with the
  // image, the fused per-thread panels do not (the whole point of streaming).
  // Images big enough that adapt_blocking keeps the same n_blk for both.
  const ConvDesc small = make_desc(1, 64, 64, 56);
  const ConvDesc large = make_desc(1, 64, 64, 112);
  LoWinoConfig cfg;
  cfg.m = 4;
  LoWinoConvolution a(small, cfg), b(large, cfg);
  EXPECT_GT(b.workspace_bytes(ExecutionMode::kStaged, 1),
            2 * a.workspace_bytes(ExecutionMode::kStaged, 1));
  EXPECT_EQ(a.workspace_bytes(ExecutionMode::kFused, 1),
            b.workspace_bytes(ExecutionMode::kFused, 1));
  // Fused workspace is linear in the thread count (one arena per worker).
  EXPECT_EQ(a.workspace_bytes(ExecutionMode::kFused, 4),
            4 * a.workspace_bytes(ExecutionMode::kFused, 1));
}

TEST(FusedWorkspaceBytes, UnresolvedAutoReportsStaged) {
  // The zero-arg accessor keeps its historical meaning (full V + Z tensors)
  // until an execute resolves kAuto — existing memory-analysis callers rely
  // on comparing layers without executing them.
  const ConvDesc d = make_desc(1, 64, 64, 28);
  LoWinoConvolution conv(d, {});
  EXPECT_EQ(conv.workspace_bytes(), conv.workspace_bytes(ExecutionMode::kStaged, 1));
}

// --- Blocked residual: the in-place alias the serving arena relies on -------
//
// A fused conv's output may share its residual's arena slot. The residual is
// read blocked, at the output's own offsets: each output tile reads its
// residual positions right before storing them, and tiles are disjoint, so an
// output aliasing its residual must produce exactly the bytes of a separate
// output buffer — F(2x2) and F(4x4), staged and fused, FP32 and u8.
TEST(BlockedResidual, InPlaceAliasMatchesSeparateOutput) {
  const ConvDesc d = make_desc(2, 48, 96, 12);  // both channel counts padded
  const Problem p = make_problem(d, 29);
  ThreadPool pool(3);
  const BlockedActLayout in_layout(d.batch, d.in_channels, d.height, d.width);
  const BlockedActLayout out_layout(d.batch, d.out_channels, d.out_height(), d.out_width());
  const std::size_t out_elems = d.batch * d.out_channels * d.out_height() * d.out_width();
  std::vector<float> in(in_layout.size());
  pack_nchw_to_blocked(p.input, d.batch, d.in_channels, d.height, d.width, in);
  Rng rng(31);
  std::vector<float> res_nchw(out_elems);
  for (float& v : res_nchw) v = rng.uniform(-1.0f, 1.0f);
  const QuantParams qp = QuantParams::from_threshold(2.0f, 8);

  for (const std::size_t m : {std::size_t{2}, std::size_t{4}}) {
    for (const ExecutionMode mode : {ExecutionMode::kStaged, ExecutionMode::kFused}) {
      for (const DType dtype : {DType::kF32, DType::kU8}) {
        SCOPED_TRACE(testing::Message() << "m=" << m << " mode=" << execution_mode_name(mode)
                                        << " dtype=" << dtype_token(dtype));
        LoWinoConfig cfg;
        cfg.m = m;
        cfg.execution_mode = mode;
        LoWinoConvolution conv(d, cfg);
        conv.set_uniform_input_threshold(2.0f);
        conv.set_filters(p.weights, p.bias);
        if (dtype == DType::kU8) conv.set_output_u8(qp);
        const std::size_t bytes = out_layout.size() * dtype_bytes(dtype);

        // The residual, blocked in the output's dtype (quantized like a u8
        // hand-off edge), with quantized-zero padding lanes.
        std::vector<std::uint8_t> res_nchw_u8(out_elems);
        quantize_u8_shift128(res_nchw, qp.scale, res_nchw_u8);
        std::vector<std::uint8_t> residual(bytes);
        relayout(dtype, ActLayout::kBlocked64,
                 dtype == DType::kU8 ? static_cast<const void*>(res_nchw_u8.data())
                                     : res_nchw.data(),
                 d.batch, d.out_channels, d.out_height(), d.out_width(), residual.data());
        PostOps post{.relu = true};
        if (dtype == DType::kU8) {
          post.sum_u8_inv_scale = qp.inv_scale;
        }
        const auto with_sum = [&](const void* sum) {
          PostOps q = post;
          if (dtype == DType::kU8) {
            q.sum_u8 = static_cast<const std::uint8_t*>(sum);
          } else {
            q.sum = static_cast<const float*>(sum);
          }
          return q;
        };

        std::vector<std::uint8_t> separate(bytes, 0xAB);
        conv.execute_blocked_typed(in.data(), separate.data(), &pool,
                                   with_sum(residual.data()));
        std::vector<std::uint8_t> aliased = residual;
        conv.execute_blocked_typed(in.data(), aliased.data(), &pool,
                                   with_sum(aliased.data()));
        EXPECT_EQ(0, std::memcmp(separate.data(), aliased.data(), bytes));

        // Padding lanes (channels 96..127) hold quantized zero.
        for (std::size_t b = 0; b < d.batch; ++b) {
          for (std::size_t y = 0; y < d.out_height(); ++y) {
            for (std::size_t x = 0; x < d.out_width(); ++x) {
              for (std::size_t ci = d.out_channels % kChanBlock; ci < kChanBlock; ++ci) {
                const std::size_t at = out_layout.offset(b, 1, y, x) + ci;
                if (dtype == DType::kU8) {
                  ASSERT_EQ(separate[at], 128);
                } else {
                  ASSERT_EQ(reinterpret_cast<const float*>(separate.data())[at], 0.0f);
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(BlockedResidual, BlockedCoreMatchesNchwEntryPoint) {
  // execute_nchw_typed is pack -> blocked core -> unpack, its NCHW residual
  // packed like the input: unpacking the blocked core's output gives the
  // same bytes.
  const ConvDesc d = make_desc(2, 48, 96, 10);
  const Problem p = make_problem(d, 37);
  ThreadPool pool(2);
  const std::size_t out_elems = d.batch * d.out_channels * d.out_height() * d.out_width();
  Rng rng(41);
  std::vector<float> res(out_elems);
  for (float& v : res) v = rng.uniform(-1.0f, 1.0f);
  for (const std::size_t m : {std::size_t{2}, std::size_t{4}}) {
    LoWinoConfig cfg;
    cfg.m = m;
    LoWinoConvolution conv(d, cfg);
    conv.set_uniform_input_threshold(2.0f);
    conv.set_filters(p.weights, p.bias);
    std::vector<float> nchw(out_elems);
    conv.execute_nchw_typed(p.input.data(), nchw.data(), &pool, PostOps{.sum = res.data()});

    std::vector<float> in(conv.input_layout().size()), res_b(conv.output_layout().size());
    std::vector<float> out_b(conv.output_layout().size()), unpacked(out_elems);
    pack_nchw_to_blocked(p.input, d.batch, d.in_channels, d.height, d.width, in);
    pack_nchw_to_blocked(res, d.batch, d.out_channels, d.out_height(), d.out_width(), res_b);
    conv.execute_blocked_typed(in.data(), out_b.data(), &pool, PostOps{.sum = res_b.data()});
    unpack_blocked_to_nchw(out_b, d.batch, d.out_channels, d.out_height(), d.out_width(),
                           unpacked);
    EXPECT_EQ(0, std::memcmp(nchw.data(), unpacked.data(), out_elems * sizeof(float)))
        << "m=" << m;
  }
}

// --- Steady-state allocation behavior ---------------------------------------
TEST(FusedSteadyState, NoAllocationsAfterWarmup) {
  const ConvDesc d = make_desc(1, 64, 64, 14);
  const Problem p = make_problem(d, 17);
  ThreadPool pool(2);

  for (const ExecutionMode mode : {ExecutionMode::kStaged, ExecutionMode::kFused}) {
    LoWinoConfig cfg;
    cfg.m = 4;
    cfg.execution_mode = mode;
    LoWinoConvolution conv(d, cfg);
    conv.set_uniform_input_threshold(2.0f);
    conv.set_filters(p.weights, p.bias);

    std::vector<float> in(conv.input_layout().size(), 0.25f);
    std::vector<float> out(conv.output_layout().size());
    // Warmup: workspace + per-thread scratch allocation happens here.
    conv.execute_blocked(in, out, &pool);
    conv.execute_blocked(in, out, &pool);

    const std::uint64_t before = aligned_buffer_alloc_count();
    for (int i = 0; i < 5; ++i) conv.execute_blocked(in, out, &pool);
    EXPECT_EQ(aligned_buffer_alloc_count(), before)
        << "mode=" << execution_mode_name(mode);
  }
}

}  // namespace
}  // namespace lowino
