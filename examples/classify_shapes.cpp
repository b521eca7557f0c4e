// End-to-end scenario: train a small CNN, post-training-quantize it with
// LoWino, and compare FP32 vs INT8 classification accuracy — the full
// deployment pipeline of the paper on the procedural shape dataset. Each
// engine is served the way it ships: an InferenceSession forcing it on every
// quantizable conv, calibrated on 256 images (8 batches of 32).
//
//   build/examples/classify_shapes [fast] [engine ...]
//
// Trailing arguments select the quantized engines to evaluate by token
// ("lowino_f4", "int8-direct", ...); the default set compares LoWino against
// direct INT8 and the down-scaling baseline. An engine that cannot run every
// quantizable conv of the model (e.g. int8_dw on ungrouped layers) is skipped.
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/model_zoo.h"
#include "nn/train.h"
#include "serve/session.h"

int main(int argc, char** argv) {
  using namespace lowino;
  const bool fast = argc > 1 && std::strcmp(argv[1], "fast") == 0;

  std::vector<EngineKind> kinds;
  for (int i = fast ? 2 : 1; i < argc; ++i) {
    const auto kind = engine_kind_from_string(argv[i]);
    if (!kind) {
      std::fprintf(stderr, "unknown engine '%s'; valid tokens:", argv[i]);
      for (EngineKind k : all_engine_kinds()) std::fprintf(stderr, " %s", engine_token(k));
      std::fprintf(stderr, "\n");
      return 1;
    }
    kinds.push_back(*kind);
  }
  if (kinds.empty()) {
    kinds = {EngineKind::kInt8Direct, EngineKind::kLoWinoF2, EngineKind::kLoWinoF4,
             EngineKind::kDownscaleF4};
  }

  const Dataset train_set = make_shape_dataset(fast ? 320 : 960, 1);
  const Dataset calib_set = make_shape_dataset(256, 2);
  const Dataset test_set = make_shape_dataset(320, 3);

  std::printf("Training MiniVGG on the procedural shape dataset (%zu samples)...\n",
              train_set.size());
  SequentialModel model = make_minivgg();
  TrainConfig cfg;
  cfg.epochs = fast ? 3 : 6;
  cfg.batch = 32;
  cfg.verbose = true;
  train_model(model, train_set, cfg);

  const EvalResult fp32 = evaluate_fp32(model, test_set, 32);
  std::printf("\nFP32 test accuracy: %.2f%%\n\n", 100.0 * fp32.accuracy);

  const std::vector<Tensor<float>> calib = image_batches(calib_set, 256, 32);
  for (EngineKind kind : kinds) {
    std::printf("Calibrating + evaluating: %s\n", engine_name(kind));
    PlanOptions options;
    options.forced_engine = kind;
    try {
      InferenceSession session = InferenceSession::compile(model, calib, options);
      Tensor<float> logits;
      const EvalResult q =
          evaluate(test_set, 32, [&](const Tensor<float>& x) -> const Tensor<float>& {
            session.run(x, logits);
            return logits;
          });
      std::printf("  INT8 accuracy %.2f%% (drop %+.2f points)\n\n", 100.0 * q.accuracy,
                  100.0 * (q.accuracy - fp32.accuracy));
    } catch (const std::invalid_argument& e) {  // the engine cannot run some layer
      std::printf("  skipped: %s\n\n", e.what());
    }
  }

  std::printf("Per-class names: ");
  for (int c = 0; c < 10; ++c) std::printf("%s ", shape_class_name(c));
  std::printf("\n");
  return 0;
}
