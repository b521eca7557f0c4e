// Serving-path benchmark: the planned InferenceSession against the best
// single-engine session on the model-zoo networks.
//
// A single-engine row is a session with that engine forced on every
// quantizable convolution (rows whose engine cannot run some layer are
// skipped). MiniMobileNet's depthwise and pointwise layers have no engine in
// common, so its baseline row is the {int8_dw, int8_direct} candidate pair,
// which leaves one eligible engine per layer. The planned session picks per
// layer (measured shoot-out across the candidate set, accuracy envelope
// enforced). The claim to check: the auto-planned session is at least as
// fast as the best single-engine choice, because per-layer selection can
// only match or beat a uniform assignment.
//
// Each net ends with the prefix-batch scaling of the envelope session:
// run(input, out, n) at every filled size n = 1..batch, the cost of a served
// partial batch.
//
// Env: LOWINO_BENCH_BATCH (default 16), LOWINO_BENCH_HW (default 32),
//      LOWINO_BENCH_BUDGET_MS (measurement budget per cell).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/env.h"
#include "nn/model_zoo.h"
#include "parallel/thread_pool.h"
#include "serve/session.h"

namespace lowino {
namespace {

Tensor<float> random_input(std::size_t batch, std::size_t hw, std::uint64_t seed) {
  Tensor<float> t({batch, 1, hw, hw});
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.uniform(-1.0f, 1.0f);
  return t;
}

/// Whether `kind` can run every quantizable convolution of `model` — what a
/// session forcing it needs.
bool runs_every_conv(SequentialModel& model, EngineKind kind, std::size_t batch) {
  const auto supports = [&](const ConvLayer& conv) {
    return !conv.quantizable() || engine_caps(kind, conv.conv_desc(batch)).supports;
  };
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    Layer& layer = model.layer(i);
    if (const auto* conv = dynamic_cast<const ConvLayer*>(&layer)) {
      if (!supports(*conv)) return false;
    } else if (auto* res = dynamic_cast<ResidualBlock*>(&layer)) {
      if (!supports(res->conv1()) || !supports(res->conv2())) return false;
    }
  }
  return true;
}

int bench_main() {
  ThreadPool& pool = ThreadPool::global();
  const std::size_t batch = bench::batch_override();
  const std::size_t hw = static_cast<std::size_t>(env_long("LOWINO_BENCH_HW", 32));
  const Tensor<float> calib = random_input(batch, hw, 42);
  const Tensor<float> input = random_input(batch, hw, 43);

  const EngineKind candidates[] = {EngineKind::kInt8Direct, EngineKind::kLoWinoF2,
                                   EngineKind::kLoWinoF4, EngineKind::kLoWinoF6,
                                   EngineKind::kInt8Depthwise};

  std::printf("InferenceSession: planned vs best single engine: batch=%zu hw=%zu, "
              "%zu thread(s)\n\n",
              batch, hw, pool.num_threads());

  struct ModelSpec {
    const char* name;
    SequentialModel model;
    std::vector<EngineKind> pair;  ///< baseline candidate pair (empty: none)
  };
  ModelSpec models[] = {
      {"MiniVGG", make_minivgg(hw), {}},
      {"MiniResNet", make_miniresnet(hw), {}},
      {"MiniMobileNet",
       make_minimobilenet(hw),
       {EngineKind::kInt8Depthwise, EngineKind::kInt8Direct}}};

  for (auto& spec : models) {
    std::printf("=== %s ===\n", spec.name);
    std::printf("%-36s %12s %10s\n", "path", "median ms", "vs best");
    bench::print_rule(60);

    double best_single = 0.0;
    std::string best_name;
    std::vector<std::pair<std::string, double>> rows;
    const auto baseline = [&](const std::string& name, const PlanOptions& plan) {
      InferenceSession single = InferenceSession::compile(spec.model, calib, plan);
      Tensor<float> scratch;
      const double sec = bench::measure([&] { single.run(input, scratch); });
      rows.emplace_back(name, sec);
      if (best_name.empty() || sec < best_single) {
        best_single = sec;
        best_name = name;
      }
    };
    for (const EngineKind kind : candidates) {
      if (!runs_every_conv(spec.model, kind, batch)) continue;
      PlanOptions forced;
      forced.forced_engine = kind;
      forced.pool = &pool;
      baseline(std::string("forced ") + engine_name(kind), forced);
    }
    if (!spec.pair.empty()) {
      PlanOptions pair;
      pair.candidates = spec.pair;
      pair.pool = &pool;
      std::string name = "pair";
      for (const EngineKind kind : spec.pair) name += std::string(" ") + engine_token(kind);
      baseline(name, pair);
    }

    // Two plans: the default accuracy envelope (may reject the fastest
    // engine on noisy layers — the latency cost of accuracy), and a
    // latency-only plan, which is the apples-to-apples comparison against
    // the forced sessions (themselves unconstrained by any envelope).
    PlanOptions options;
    options.candidates.assign(std::begin(candidates), std::end(candidates));
    options.pool = &pool;
    options.min_snr_db = static_cast<double>(env_long("LOWINO_BENCH_MIN_SNR", 20));
    InferenceSession session = InferenceSession::compile(spec.model, calib, options);
    PlanOptions latency_only = options;
    latency_only.min_snr_db = 0.0;
    InferenceSession fast_session = InferenceSession::compile(spec.model, calib, latency_only);

    // The post-op fusion A/B: the same envelope plan compiled with the
    // LOWINO_FUSE_POSTOPS kill-switch off (element-wise ReLU / add+relu
    // passes stay separate ops, no in-place residual arena reuse).
    std::size_t unfused_arena = 0, unfused_ops = 0;
    double unfused_sec = 0.0;
    {
      ScopedRuntimeOverride off("LOWINO_FUSE_POSTOPS", "0");
      InferenceSession unfused = InferenceSession::compile(spec.model, calib, options);
      Tensor<float> scratch;
      unfused_sec = bench::measure([&] { unfused.run(input, scratch); });
      unfused_arena = unfused.plan().arena_bytes;
      unfused_ops = unfused.op_count();
    }

    // The u8 hand-off A/B: replay the *same* plan (identical engine choices)
    // with the LOWINO_U8_HANDOFF kill-switch off — the dtype tokens are
    // ignored, every inter-layer edge stays FP32, so the only delta is the
    // activation traffic (4x the bytes on the hand-off segments).
    std::size_t f32_arena = 0;
    double f32_sec = 0.0;
    {
      ScopedRuntimeOverride off("LOWINO_U8_HANDOFF", "0");
      PlanOptions replay = options;
      replay.reuse = &session.plan();
      InferenceSession all_f32 = InferenceSession::compile(spec.model, calib, replay);
      Tensor<float> scratch;
      f32_sec = bench::measure([&] { all_f32.run(input, scratch); });
      f32_arena = all_f32.plan().arena_bytes;
    }

    Tensor<float> out;
    const double envelope_sec = bench::measure([&] { session.run(input, out); });
    const double fast_sec = bench::measure([&] { fast_session.run(input, out); });
    char label[64];
    std::snprintf(label, sizeof label, "session (envelope %.0f dB)", options.min_snr_db);
    rows.emplace_back(label, envelope_sec);
    rows.emplace_back("session (post-op fusion OFF)", unfused_sec);
    rows.emplace_back("session (u8 hand-off OFF)", f32_sec);
    rows.emplace_back("session (latency-only plan)", fast_sec);

    for (const auto& [name, sec] : rows) {
      std::printf("%-36s %12.3f %9.2fx\n", name.c_str(), 1e3 * sec, best_single / sec);
    }
    std::printf("\nbest single engine: %s; latency-only session speedup over it: %.2fx\n",
                best_name.c_str(), best_single / fast_sec);
    std::printf("post-op fusion: ops %zu -> %zu, arena %zu -> %zu bytes (%.0f%%), "
                "fused speedup %.2fx\n",
                unfused_ops, session.op_count(), unfused_arena, session.plan().arena_bytes,
                unfused_arena != 0
                    ? 100.0 * static_cast<double>(session.plan().arena_bytes) /
                          static_cast<double>(unfused_arena)
                    : 0.0,
                envelope_sec != 0.0 ? unfused_sec / envelope_sec : 0.0);
    std::size_t u8_edges = 0;
    for (const SessionPlan::ConvChoice& c : session.plan().convs) {
      u8_edges += (c.in_dtype == DType::kU8) + (c.out_dtype == DType::kU8);
    }
    std::printf("u8 hand-off: %zu conv edge(s), arena %zu -> %zu bytes (%.0f%%), "
                "speedup over all-FP32 %.2fx\n",
                u8_edges, f32_arena, session.plan().arena_bytes,
                f32_arena != 0 ? 100.0 * static_cast<double>(session.plan().arena_bytes) /
                                     static_cast<double>(f32_arena)
                               : 0.0,
                envelope_sec != 0.0 ? f32_sec / envelope_sec : 0.0);
    std::printf("prefix runs (envelope session): %6s %12s %9s\n", "images", "median ms",
                "vs full");
    for (std::size_t n = 1; n <= batch; ++n) {
      const double sec = bench::measure([&] { session.run(input, out, n); });
      std::printf("%31s %6zu %12.3f %8.2fx\n", "", n, 1e3 * sec,
                  envelope_sec != 0.0 ? sec / envelope_sec : 0.0);
    }
    std::printf("%s\n", session.plan().summary().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace lowino

int main() { return lowino::bench_main(); }
