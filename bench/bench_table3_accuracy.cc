// Table 3 reproduction: end-to-end top-1 accuracy of trained CNNs under each
// low-precision convolution scheme.
//
// Substitution (see DESIGN.md): MiniVGG / MiniResNet trained on the
// procedural shape dataset stand in for VGG16 / ResNet-50 on ImageNet. The
// measured quantity is identical in kind: FP32 top-1 vs INT8 top-1 after
// post-training quantization with ~500-sample calibration.
//
// Each row is what ships: an InferenceSession with the row's engine forced on
// every quantizable conv (every Table 3 kind supports all of them: 3x3,
// stride 1, ungrouped), calibrated on the 512-image set as 16 batches of 32
// and evaluated through session.run — u8 hand-off, blocked layouts and fused
// epilogues as compiled.
//
// Env: LOWINO_TRAIN_N (default 1280), LOWINO_TEST_N (default 640),
//      LOWINO_EPOCHS (default 8), LOWINO_FAST=1 (quick smoke configuration),
//      LOWINO_BENCH_ENGINES (comma-separated engine tokens, e.g.
//      "lowino_f2,lowino_f4" — default: the full Table 3 engine set).
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/env.h"
#include "nn/model_zoo.h"
#include "nn/train.h"
#include "serve/session.h"

namespace lowino {
namespace {

struct EngineRow {
  EngineKind kind;
  const char* group;
};

int bench_main() {
  const bool fast = env_flag("LOWINO_FAST");
  const std::size_t train_n = static_cast<std::size_t>(
      env_long("LOWINO_TRAIN_N", fast ? 320 : 1280));
  const std::size_t test_n =
      static_cast<std::size_t>(env_long("LOWINO_TEST_N", fast ? 160 : 640));
  const std::size_t calib_n = 512;
  const std::size_t batch = 32;
  TrainConfig cfg;
  cfg.epochs = static_cast<std::size_t>(env_long("LOWINO_EPOCHS", fast ? 3 : 8));
  cfg.batch = batch;
  cfg.verbose = env_flag("LOWINO_VERBOSE");

  const Dataset train_set = make_shape_dataset(train_n, 1001);
  const Dataset calib_set = make_shape_dataset(calib_n, 1002);
  const Dataset test_set = make_shape_dataset(test_n, 1003);

  const EngineRow all_engines[] = {
      {EngineKind::kInt8Direct, "Non-Winograd"},
      {EngineKind::kUpcastF2, "F(2x2,3x3)"},
      {EngineKind::kVendorF2, "F(2x2,3x3)"},
      {EngineKind::kDownscaleF2, "F(2x2,3x3)"},
      {EngineKind::kLoWinoF2, "F(2x2,3x3)"},
      {EngineKind::kDownscaleF4, "F(4x4,3x3)"},
      {EngineKind::kLoWinoF4, "F(4x4,3x3)"},
      {EngineKind::kLoWinoF6, "F(6x6,3x3)"},
  };
  // LOWINO_BENCH_ENGINES narrows the sweep ("lowino_f2,lowino_f4"); rows keep
  // the declaration order above. Unknown tokens abort rather than silently
  // benchmark the wrong set.
  std::vector<EngineRow> engines;
  const std::string filter = config_string("LOWINO_BENCH_ENGINES", "");
  if (filter.empty()) {
    engines.assign(std::begin(all_engines), std::end(all_engines));
  } else {
    std::istringstream tokens(filter);
    std::string token;
    std::vector<EngineKind> wanted;
    while (std::getline(tokens, token, ',')) {
      const auto kind = engine_kind_from_string(token);
      if (!kind) {
        std::fprintf(stderr, "LOWINO_BENCH_ENGINES: unknown engine '%s'\n", token.c_str());
        return 1;
      }
      wanted.push_back(*kind);
    }
    for (const EngineRow& row : all_engines) {
      for (EngineKind k : wanted) {
        if (row.kind == k) {
          engines.push_back(row);
          break;
        }
      }
    }
  }

  std::printf("Table 3 reproduction: top-1 accuracy, procedural dataset "
              "(train=%zu test=%zu epochs=%zu)\n\n",
              train_n, test_n, cfg.epochs);

  struct ModelSpec {
    const char* name;
    SequentialModel model;
  };
  ModelSpec models[] = {{"MiniVGG (for VGG16)", make_minivgg()},
                        {"MiniResNet (for ResNet-50)", make_miniresnet()}};

  const std::vector<Tensor<float>> calib = image_batches(calib_set, calib_n, batch);
  for (auto& spec : models) {
    std::printf("=== %s ===\n", spec.name);
    const double train_acc = train_model(spec.model, train_set, cfg);
    const EvalResult fp32 = evaluate_fp32(spec.model, test_set, batch);
    std::printf("training accuracy %.2f%%; FP32 test top-1 %.2f%%\n\n", 100.0 * train_acc,
                100.0 * fp32.accuracy);
    std::printf("%-12s %-36s %10s %10s %8s %9s\n", "group", "method", "FP32 (%)", "INT8 (%)",
                "drop", "u8 edges");
    bench::print_rule(92);
    for (const EngineRow& row : engines) {
      PlanOptions options;
      options.forced_engine = row.kind;
      InferenceSession session = InferenceSession::compile(spec.model, calib, options);
      Tensor<float> logits;
      const EvalResult q =
          evaluate(test_set, batch, [&](const Tensor<float>& x) -> const Tensor<float>& {
            session.run(x, logits);
            return logits;
          });
      std::size_t u8_edges = 0;
      for (const SessionPlan::ConvChoice& c : session.plan().convs) {
        u8_edges += (c.in_dtype == DType::kU8) + (c.out_dtype == DType::kU8);
      }
      std::printf("%-12s %-36s %10.2f %10.2f %+7.2f %9zu\n", row.group, engine_name(row.kind),
                  100.0 * fp32.accuracy, 100.0 * q.accuracy,
                  100.0 * (q.accuracy - fp32.accuracy), u8_edges);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("Paper shape to verify: LoWino within ~1%% of FP32 at both tile sizes;\n"
              "down-scaling F(4x4) collapses toward chance (10%% here, 0.00%% in the "
              "paper's ImageNet setup).\n");
  return 0;
}

}  // namespace
}  // namespace lowino

int main() { return lowino::bench_main(); }
