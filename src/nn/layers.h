// NN layers: FP32 forward + backward (training) and the weights and shapes
// that quantized inference reads.
//
// Tensors are NCHW FP32 (`Tensor<float>`), batch in dim 0. Training uses the
// FP32 im2col-GEMM path. The layers hold no quantized state: the one
// quantized runtime is serve/session.h, which lowers a model to ops and runs
// each quantizable convolution through an engine of its own (nn/engines.h),
// built from the layer's conv_desc(), weights() and bias(). Shapes (except
// batch) are fixed at construction.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "direct/direct_f32.h"
#include "tensor/conv_desc.h"
#include "tensor/tensor.h"

namespace lowino {

class Layer {
 public:
  virtual ~Layer() = default;
  virtual std::string name() const = 0;

  /// FP32 forward. `train` enables caches needed by backward.
  virtual void forward(const Tensor<float>& in, Tensor<float>& out, bool train) = 0;
  /// Backward: consumes d(loss)/d(out), produces d(loss)/d(in), accumulates
  /// parameter gradients. Must follow a forward(train = true).
  virtual void backward(const Tensor<float>& grad_out, Tensor<float>& grad_in) = 0;
  /// SGD + momentum update; zeroes the gradients afterwards.
  virtual void update(float lr, float momentum) {}

  virtual std::size_t parameter_count() const { return 0; }
};

/// 3x3 (or r x r) convolution, stride 1, symmetric padding, optionally
/// grouped (`groups` == in_channels is depthwise, the MobileNet building
/// block). Grouped layers hold weights in the K x (C/groups) x r x r layout.
class ConvLayer : public Layer {
 public:
  ConvLayer(std::size_t in_channels, std::size_t out_channels, std::size_t hw,
            std::size_t kernel, std::size_t pad, Rng& rng, std::size_t groups = 1);

  std::string name() const override;
  void forward(const Tensor<float>& in, Tensor<float>& out, bool train) override;
  void backward(const Tensor<float>& grad_out, Tensor<float>& grad_in) override;
  void update(float lr, float momentum) override;

  /// Span-based FP32 forward (conv_f32_forward over this layer's weights).
  /// All scratch lives in a member buffer — allocation-free once it is warm.
  /// Not reentrant: concurrent callers must hold distinct ConvLayer instances
  /// (the serving session calls conv_f32_forward with its own scratch).
  void forward_fp32(std::span<const float> in, std::span<float> out, std::size_t batch);

  std::size_t parameter_count() const override { return weights_.size() + bias_.size(); }
  std::span<const float> weights() const { return {weights_.data(), weights_.size()}; }
  std::span<float> mutable_weights() { return {weights_.data(), weights_.size()}; }
  std::span<const float> bias() const { return {bias_.data(), bias_.size()}; }
  std::size_t in_channels() const { return c_; }
  std::size_t out_channels() const { return k_; }
  std::size_t spatial() const { return hw_; }
  std::size_t groups() const { return groups_; }
  /// The ConvDesc this layer presents for a given batch size (what the
  /// serving planner feeds make_conv_engine / the tuner).
  ConvDesc conv_desc(std::size_t batch) const { return desc_for_batch(batch); }

  /// When false, quantized inference keeps this layer in FP32 (standard
  /// practice for network stems; mirrors the paper's setup where the first
  /// convolution is never a 3x3 Winograd candidate).
  void set_quantizable(bool q) { quantizable_ = q; }
  bool quantizable() const { return quantizable_; }

 private:
  ConvDesc desc_for_batch(std::size_t batch) const;

  std::size_t c_, k_, hw_, r_, pad_, groups_;
  std::vector<float> weights_, bias_;
  std::vector<float> grad_w_, grad_b_;
  std::vector<float> mom_w_, mom_b_;

  Tensor<float> cached_in_;  ///< input cache for backward
  ConvF32Scratch scratch_;   ///< FP32 forward scratch; col keeps the batch after train
  bool quantizable_ = true;
};

class ReluLayer : public Layer {
 public:
  std::string name() const override { return "relu"; }
  void forward(const Tensor<float>& in, Tensor<float>& out, bool train) override;
  void backward(const Tensor<float>& grad_out, Tensor<float>& grad_in) override;

 private:
  std::vector<char> mask_;
};

/// 2x2 max pooling, stride 2.
class MaxPoolLayer : public Layer {
 public:
  explicit MaxPoolLayer(std::size_t channels, std::size_t hw);
  std::string name() const override { return "maxpool2x2"; }
  void forward(const Tensor<float>& in, Tensor<float>& out, bool train) override;
  void backward(const Tensor<float>& grad_out, Tensor<float>& grad_in) override;
  std::size_t channels() const { return c_; }
  std::size_t spatial() const { return hw_; }

 private:
  std::size_t c_, hw_;
  std::vector<std::uint32_t> argmax_;
};

/// Fully connected layer on flattened input.
class DenseLayer : public Layer {
 public:
  DenseLayer(std::size_t in_features, std::size_t out_features, Rng& rng);
  std::string name() const override;
  void forward(const Tensor<float>& in, Tensor<float>& out, bool train) override;
  void backward(const Tensor<float>& grad_out, Tensor<float>& grad_in) override;
  void update(float lr, float momentum) override;
  std::size_t parameter_count() const override { return w_.size() + b_.size(); }
  std::size_t in_features() const { return in_f_; }
  std::size_t out_features() const { return out_f_; }
  std::span<const float> weights() const { return {w_.data(), w_.size()}; }
  std::span<const float> bias() const { return {b_.data(), b_.size()}; }

 private:
  std::size_t in_f_, out_f_;
  std::vector<float> w_, b_, grad_w_, grad_b_, mom_w_, mom_b_;
  Tensor<float> cached_in_;
};

/// Residual block: out = relu(x + conv2(relu(conv1(x)))) with same shapes.
class ResidualBlock : public Layer {
 public:
  ResidualBlock(std::size_t channels, std::size_t hw, Rng& rng);
  std::string name() const override { return "residual"; }
  void forward(const Tensor<float>& in, Tensor<float>& out, bool train) override;
  void backward(const Tensor<float>& grad_out, Tensor<float>& grad_in) override;
  void update(float lr, float momentum) override;
  std::size_t parameter_count() const override {
    return conv1_.parameter_count() + conv2_.parameter_count();
  }
  ConvLayer& conv1() { return conv1_; }
  ConvLayer& conv2() { return conv2_; }

 private:
  ConvLayer conv1_, conv2_;
  ReluLayer relu_mid_;
  std::vector<char> out_mask_;
  Tensor<float> mid_, mid_act_, f_out_;       // forward caches
  Tensor<float> g_f_, g_mid_act_, g_mid_;     // backward scratch
};

}  // namespace lowino
