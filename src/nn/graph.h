// Sequential model container: FP32 training forward/backward over a list of
// layers. Quantized inference is not the model's job: serve/session.h
// compiles a model into an InferenceSession, which calibrates its own engines
// on FP32 calibration batches (the "~500 sample images" procedure of Eq. 7)
// and is the one quantized runtime.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "tensor/tensor.h"

namespace lowino {

class SequentialModel {
 public:
  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }
  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  /// FP32 forward pass; returns the logits tensor.
  const Tensor<float>& forward(const Tensor<float>& input, bool train = false);

  /// Backward from d(loss)/d(logits); fills every layer's gradients.
  void backward(const Tensor<float>& grad_logits);

  void update(float lr, float momentum);

  std::size_t parameter_count() const;
  std::string summary() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Tensor<float>> activations_;  ///< per-layer FP32 activations
  std::vector<Tensor<float>> grads_;
};

}  // namespace lowino
