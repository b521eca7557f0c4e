// Test-only oracle for the InferenceSession goldens: a model replayed layer
// by layer with one engine kind forced on every quantizable convolution,
// without going through the session compiler.
//
// Each quantizable conv gets its own make_conv_engine(kind, desc), calibrated
// on that conv's FP32 input from an FP32 pass over the calibration batch. At
// run time each conv runs with an empty PostOps and FP32 activations between
// layers; ReLU and the residual add+relu run as separate FP32 passes. So a
// session with the u8 hand-off off must match this replay bit for bit: its
// engines see the same calibration inputs, and its fused epilogues perform
// the same float op sequence as the separate passes (tensor/post_ops.h).
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "nn/engines.h"
#include "nn/graph.h"
#include "tensor/tensor.h"

namespace lowino {

class EngineReplay {
 public:
  EngineReplay(SequentialModel& model, EngineKind kind, const Tensor<float>& calib)
      : model_(model) {
    const std::size_t batch = calib.dim(0);
    walk(calib, [&](ConvLayer& conv, const Tensor<float>& in, Tensor<float>& out) {
      if (conv.quantizable()) {
        const ConvDesc desc = conv.conv_desc(batch);
        std::unique_ptr<ConvEngine> engine = make_conv_engine(kind, desc);
        if (engine_caps(kind, desc).quantized) {
          engine->calibrate(in.span());
          engine->finalize_calibration();
        }
        engine->set_filters(conv.weights(), conv.bias());
        engine_per_conv_.push_back(std::move(engine));
      }
      conv.forward(in, out, /*train=*/false);
    });
  }

  /// The replayed logits for `input` (same batch as the calibration batch).
  Tensor<float> run(const Tensor<float>& input, ThreadPool* pool) {
    std::size_t next = 0;
    return walk(input, [&](ConvLayer& conv, const Tensor<float>& in, Tensor<float>& out) {
      if (!conv.quantizable()) {
        conv.forward(in, out, /*train=*/false);
        return;
      }
      const ConvDesc desc = conv.conv_desc(in.dim(0));
      out.reshape({desc.batch, desc.out_channels, desc.out_height(), desc.out_width()});
      engine_per_conv_.at(next++)->run(in.span(), out.span(), pool, PostOps{});
    });
  }

 private:
  /// One pass over the model: every ConvLayer (residual convs included)
  /// through `conv`, everything else in FP32.
  template <typename Conv>
  Tensor<float> walk(const Tensor<float>& input, Conv&& conv) {
    Tensor<float> cur = input, next, mid, mid_act, f;
    ReluLayer relu;
    for (std::size_t i = 0; i < model_.layer_count(); ++i) {
      Layer& layer = model_.layer(i);
      if (auto* c = dynamic_cast<ConvLayer*>(&layer)) {
        conv(*c, cur, next);
      } else if (auto* res = dynamic_cast<ResidualBlock*>(&layer)) {
        conv(res->conv1(), cur, mid);
        relu.forward(mid, mid_act, /*train=*/false);
        conv(res->conv2(), mid_act, f);
        next.reshape(cur.shape());
        for (std::size_t j = 0; j < cur.size(); ++j) {
          next.data()[j] = std::max(0.0f, cur.data()[j] + f.data()[j]);
        }
      } else {
        layer.forward(cur, next, /*train=*/false);
      }
      std::swap(cur, next);
    }
    return cur;
  }

  SequentialModel& model_;
  std::vector<std::unique_ptr<ConvEngine>> engine_per_conv_;
};

}  // namespace lowino
