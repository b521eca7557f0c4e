// Concurrency stress tests — the TSan preset's target (see CMakePresets.json
// and TESTING.md).
//
// The fused execution path runs transform -> GEMM -> output transform inside
// one parallel region with per-thread panel arenas; the transform-matrix
// cache is lazily populated behind a mutex; the tuner hammers the same GEMM
// substrate. These tests run all of that concurrently from independent
// ThreadPools and assert the outputs stay bitwise identical — any data race
// that corrupts state shows up as a mismatch (and as a TSan report under the
// tsan preset).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "engine_replay.h"
#include "lowino/convolution.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "nn/model_zoo.h"
#include "serve/session.h"
#include "testing/oracle.h"
#include "tuning/tuner.h"
#include "winograd/transform.h"

namespace lowino {
namespace {

ConvDesc stress_desc() {
  ConvDesc d;
  d.batch = 1;
  d.in_channels = 32;
  d.out_channels = 32;
  d.height = d.width = 16;
  d.kernel = 3;
  d.pad = 1;
  return d;
}

struct StressData {
  std::vector<float> input, weights, bias;
};

StressData stress_data(const ConvDesc& d) {
  Rng rng(0x57e55);
  StressData s;
  s.input.resize(d.batch * d.in_channels * d.height * d.width);
  s.weights.resize(d.out_channels * d.in_channels * d.kernel * d.kernel);
  s.bias.resize(d.out_channels);
  for (float& v : s.input) v = rng.uniform(-1.0f, 1.0f);
  for (float& v : s.weights) v = rng.uniform(-1.0f, 1.0f);
  for (float& v : s.bias) v = rng.uniform(-0.5f, 0.5f);
  return s;
}

std::vector<float> run_fused_conv(const ConvDesc& d, const StressData& data,
                                  std::size_t threads, std::size_t iterations) {
  LoWinoConfig cfg;
  cfg.m = 4;
  cfg.execution_mode = ExecutionMode::kFused;
  LoWinoConvolution conv(d, cfg);
  conv.set_uniform_input_threshold(12.0f);
  conv.set_filters(data.weights, data.bias);
  ThreadPool pool(threads);
  std::vector<float> out(d.batch * d.out_channels * d.out_height() * d.out_width());
  for (std::size_t i = 0; i < iterations; ++i) {
    conv.execute_nchw(data.input, out, &pool);
  }
  return out;
}

// Several fused-mode convolutions, each with its own pool, executing at once.
// Every run must produce the same bits as a quiet single-threaded run.
TEST(ThreadStress, ConcurrentFusedConvolutionsAreBitIdentical) {
  const ConvDesc d = stress_desc();
  const StressData data = stress_data(d);
  const std::vector<float> golden = run_fused_conv(d, data, 1, 1);

  constexpr std::size_t kRunners = 4;
  std::vector<std::vector<float>> results(kRunners);
  {
    std::vector<std::thread> runners;
    runners.reserve(kRunners);
    for (std::size_t i = 0; i < kRunners; ++i) {
      runners.emplace_back([&, i] {
        results[i] = run_fused_conv(d, data, 1 + i % 3, /*iterations=*/4);
      });
    }
    for (auto& t : runners) t.join();
  }
  for (std::size_t i = 0; i < kRunners; ++i) {
    ASSERT_EQ(results[i].size(), golden.size());
    EXPECT_EQ(results[i], golden) << "runner " << i;
  }
}

// First-touch race on the lazily generated transform cache: many threads ask
// for the same (and different) tile sizes simultaneously; everyone must see
// one fully constructed, identical instance.
TEST(ThreadStress, TransformCacheFirstTouchIsSafe) {
  constexpr std::size_t kThreads = 8;
  const std::size_t ms[] = {2, 4, 6, 3};
  std::vector<const TransformMatrices*> seen(kThreads * 4, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (std::size_t j = 0; j < 4; ++j) {
        seen[i * 4 + j] = &winograd_transform(ms[(i + j) % 4], 3);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads * 4; ++i) {
    ASSERT_NE(seen[i], nullptr);
    const std::size_t m = ms[(i / 4 + i % 4) % 4];
    EXPECT_EQ(seen[i], &winograd_transform(m, 3));
    EXPECT_EQ(seen[i]->alpha, m + 2);
  }
}

// The tuner (timing loops over the shared GEMM substrate, wisdom writes into
// a local store) racing against live fused convolutions.
TEST(ThreadStress, TunerRacesFusedExecution) {
  const ConvDesc d = stress_desc();
  const StressData data = stress_data(d);
  const std::vector<float> golden = run_fused_conv(d, data, 1, 1);

  std::thread tuner([&] {
    TuneOptions opts;
    opts.seconds_per_candidate = 0.002;
    opts.min_reps = 1;
    opts.max_candidates = 3;
    const TuneResult r = tune_layer(d, 4, nullptr, opts);
    EXPECT_GT(r.evaluated, 0u);
  });
  std::vector<float> out;
  for (int i = 0; i < 3; ++i) out = run_fused_conv(d, data, 2, 2);
  tuner.join();
  EXPECT_EQ(out, golden);
}

// Everything above, but with the execution profiler recording: concurrent
// fused convolutions write per-stage spans into per-thread logs while another
// thread repeatedly collects totals and resets — the collection API races the
// register path (new threads acquiring logs), which must stay clean under
// TSan and must not perturb the numerics.
TEST(ThreadStress, ProfiledConcurrentFusedConvolutionsAreBitIdentical) {
  const ConvDesc d = stress_desc();
  const StressData data = stress_data(d);
  const std::vector<float> golden = run_fused_conv(d, data, 1, 1);

  const bool was_enabled = profiler_enabled();
  profiler_set_enabled(true);

  constexpr std::size_t kRunners = 3;
  std::vector<std::vector<float>> results(kRunners);
  {
    std::vector<std::thread> runners;
    runners.reserve(kRunners);
    for (std::size_t i = 0; i < kRunners; ++i) {
      runners.emplace_back([&, i] {
        results[i] = run_fused_conv(d, data, 1 + i % 3, /*iterations=*/4);
      });
    }
    // Concurrent collection: totals/summary readers share the registry with
    // threads that are still registering their logs.
    for (int i = 0; i < 20; ++i) {
      const auto totals = profiler_stage_totals();
      EXPECT_GE(totals[static_cast<std::size_t>(ProfileStage::kGemm)].seconds, 0.0);
      (void)profiler_thread_count();
    }
    for (auto& t : runners) t.join();
  }
  const auto totals = profiler_stage_totals();
  EXPECT_GT(totals[static_cast<std::size_t>(ProfileStage::kGemm)].spans, 0u);

  profiler_set_enabled(was_enabled);
  profiler_reset();

  for (std::size_t i = 0; i < kRunners; ++i) {
    ASSERT_EQ(results[i].size(), golden.size());
    EXPECT_EQ(results[i], golden) << "runner " << i;
  }
}


// Two InferenceSessions built from two independent models, each bound to its
// own ThreadPool, serving concurrently from separate threads. The sessions
// must be thread-compatible: every mutable buffer (engines, arena, scratch)
// is session-owned, so concurrent runs share only immutable model weights.
// Outputs must stay bitwise identical to a single-threaded reference run.
TEST(ThreadStress, ConcurrentSessionsServeIndependently) {
  // Golden comes from the layer-by-layer engine replay (FP32 inter-layer
  // hand-off), so pin the u8 hand-off off for the bit-compare.
  ScopedRuntimeOverride u8_off("LOWINO_U8_HANDOFF", "0");
  auto make_input = [](std::uint64_t seed) {
    Tensor<float> t({2, 1, 16, 16});
    Rng rng(seed);
    for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.uniform(-1.0f, 1.0f);
    return t;
  };
  const Tensor<float> calib = make_input(11);
  const Tensor<float> input = make_input(22);

  SequentialModel vgg = make_minivgg();
  SequentialModel resnet = make_miniresnet();

  ThreadPool pool_a(2), pool_b(2), pool_ref(2);
  PlanOptions opt_a, opt_b;
  opt_a.forced_engine = EngineKind::kLoWinoF2;
  opt_a.pool = &pool_a;
  opt_b.forced_engine = EngineKind::kLoWinoF4;
  opt_b.pool = &pool_b;
  InferenceSession sess_a = InferenceSession::compile(vgg, calib, opt_a);
  InferenceSession sess_b = InferenceSession::compile(resnet, calib, opt_b);

  // Single-threaded goldens from the layer-sequential replay on a third pool.
  const Tensor<float> golden_a =
      EngineReplay(vgg, EngineKind::kLoWinoF2, calib).run(input, &pool_ref);
  const Tensor<float> golden_b =
      EngineReplay(resnet, EngineKind::kLoWinoF4, calib).run(input, &pool_ref);

  constexpr int kIterations = 6;
  Tensor<float> out_a, out_b;
  std::thread runner_a([&] {
    for (int i = 0; i < kIterations; ++i) sess_a.run(input, out_a);
  });
  std::thread runner_b([&] {
    for (int i = 0; i < kIterations; ++i) sess_b.run(input, out_b);
  });
  runner_a.join();
  runner_b.join();

  ASSERT_EQ(out_a.size(), golden_a.size());
  ASSERT_EQ(out_b.size(), golden_b.size());
  EXPECT_EQ(0, std::memcmp(out_a.data(), golden_a.data(), out_a.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(out_b.data(), golden_b.data(), out_b.size() * sizeof(float)));
}

// One-image prefix runs on a 4-thread pool: a lone image has fewer n-blocks
// than the pool has workers, so most workers find no work in a parallel
// region. Both a fused-mode convolution and a served session (several pools
// at once) must still give lane 0 the bits of a whole-batch run.
TEST(ThreadStress, PrefixRunsOnWidePool) {
  ConvDesc d = stress_desc();
  d.batch = 4;
  const StressData data = stress_data(d);
  LoWinoConfig cfg;
  cfg.m = 4;
  cfg.execution_mode = ExecutionMode::kFused;
  LoWinoConvolution conv(d, cfg);
  conv.set_uniform_input_threshold(12.0f);
  conv.set_filters(data.weights, data.bias);
  ThreadPool conv_pool(4);
  const std::size_t image = d.out_channels * d.out_height() * d.out_width();
  std::vector<float> full(d.batch * image), one(d.batch * image);
  conv.execute_nchw(data.input, full, &conv_pool);

  auto make_input = [](std::uint64_t seed) {
    Tensor<float> t({4, 1, 16, 16});
    Rng rng(seed);
    for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.uniform(-1.0f, 1.0f);
    return t;
  };
  const Tensor<float> input = make_input(33);
  SequentialModel resnet = make_miniresnet();
  ThreadPool pool_a(4), pool_b(4);
  PlanOptions opt_a, opt_b;
  opt_a.forced_engine = EngineKind::kLoWinoF2;
  opt_a.pool = &pool_a;
  opt_b.forced_engine = EngineKind::kLoWinoF4;
  opt_b.pool = &pool_b;
  InferenceSession sess_a = InferenceSession::compile(resnet, make_input(34), opt_a);
  InferenceSession sess_b = InferenceSession::compile(resnet, make_input(34), opt_b);
  Tensor<float> full_a, full_b, out_a, out_b;
  sess_a.run(input, full_a);
  sess_b.run(input, full_b);

  constexpr int kIterations = 6;
  std::thread runner_a([&] {
    for (int i = 0; i < kIterations; ++i) sess_a.run(input, out_a, 1);
  });
  std::thread runner_b([&] {
    for (int i = 0; i < kIterations; ++i) sess_b.run(input, out_b, 1);
  });
  for (int i = 0; i < kIterations; ++i) conv.execute_nchw(data.input, one, &conv_pool, {}, 1);
  runner_a.join();
  runner_b.join();

  EXPECT_EQ(0, std::memcmp(one.data(), full.data(), image * sizeof(float)));
  const std::size_t row = full_a.size() / 4;
  EXPECT_EQ(0, std::memcmp(out_a.data(), full_a.data(), row * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(out_b.data(), full_b.data(), row * sizeof(float)));
}

}  // namespace
}  // namespace lowino
