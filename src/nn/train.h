// Training (SGD + momentum, softmax cross-entropy) and evaluation: one loop
// over a dataset that scores whatever forward pass it is given — the model's
// own FP32 forward (evaluate_fp32), or a compiled InferenceSession for the
// quantized Table 3 measurement (bench/bench_table3_accuracy.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "nn/dataset.h"
#include "nn/graph.h"

namespace lowino {

struct TrainConfig {
  std::size_t epochs = 10;
  std::size_t batch = 32;
  float lr = 0.05f;
  float momentum = 0.9f;
  float lr_decay = 0.5f;        ///< multiply lr by this ...
  std::size_t decay_every = 4;  ///< ... every this many epochs
  std::uint64_t shuffle_seed = 7;
  bool verbose = false;
};

struct EvalResult {
  double accuracy = 0.0;
  double avg_loss = 0.0;
  std::size_t samples = 0;
};

/// Softmax + cross-entropy: returns the mean loss and writes
/// d(loss)/d(logits) (already averaged over the batch).
float softmax_xent(const Tensor<float>& logits, std::span<const int> labels,
                   Tensor<float>& grad);

/// Argmax predictions of a logits tensor.
void predict(const Tensor<float>& logits, std::vector<int>& out);

/// Trains in place; returns final-epoch training accuracy.
double train_model(SequentialModel& model, const Dataset& data, const TrainConfig& config);

/// Maps one input batch to its logits.
using ForwardFn = std::function<const Tensor<float>&(const Tensor<float>&)>;

/// Scores `forward` on `data` in `batch`-sized chunks. Samples beyond the
/// last full batch are dropped (a compiled session serves one batch size).
EvalResult evaluate(const Dataset& data, std::size_t batch, const ForwardFn& forward);

/// FP32 evaluation: evaluate() over the model's own forward pass.
EvalResult evaluate_fp32(SequentialModel& model, const Dataset& data, std::size_t batch = 32);

}  // namespace lowino
