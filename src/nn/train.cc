#include "nn/train.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "common/rng.h"

namespace lowino {

float softmax_xent(const Tensor<float>& logits, std::span<const int> labels,
                   Tensor<float>& grad) {
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  grad.reshape({batch, classes});
  float total = 0.0f;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* z = logits.data() + b * classes;
    float* g = grad.data() + b * classes;
    float zmax = z[0];
    for (std::size_t c = 1; c < classes; ++c) zmax = std::max(zmax, z[c]);
    float denom = 0.0f;
    for (std::size_t c = 0; c < classes; ++c) denom += std::exp(z[c] - zmax);
    const float log_denom = std::log(denom);
    const int label = labels[b];
    total += -(z[label] - zmax - log_denom);
    const float inv_batch = 1.0f / static_cast<float>(batch);
    for (std::size_t c = 0; c < classes; ++c) {
      const float p = std::exp(z[c] - zmax) / denom;
      g[c] = (p - (static_cast<int>(c) == label ? 1.0f : 0.0f)) * inv_batch;
    }
  }
  return total / static_cast<float>(batch);
}

void predict(const Tensor<float>& logits, std::vector<int>& out) {
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  out.resize(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* z = logits.data() + b * classes;
    out[b] = static_cast<int>(std::max_element(z, z + classes) - z);
  }
}

double train_model(SequentialModel& model, const Dataset& data, const TrainConfig& config) {
  Rng rng(config.shuffle_seed);
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  Tensor<float> x, grad;
  std::vector<int> y, pred;
  float lr = config.lr;
  double last_epoch_acc = 0.0;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (epoch != 0 && config.decay_every != 0 && epoch % config.decay_every == 0) {
      lr *= config.lr_decay;
    }
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    double loss_sum = 0.0;
    std::size_t correct = 0, seen = 0;
    for (std::size_t start = 0; start + config.batch <= data.size();
         start += config.batch) {
      x.reshape({config.batch, data.channels, data.image_hw, data.image_hw});
      y.resize(config.batch);
      for (std::size_t b = 0; b < config.batch; ++b) {
        const std::size_t idx = order[start + b];
        const auto img = data.image(idx);
        std::copy(img.begin(), img.end(), x.data() + b * img.size());
        y[b] = data.labels[idx];
      }
      const Tensor<float>& logits = model.forward(x, /*train=*/true);
      loss_sum += softmax_xent(logits, y, grad);
      predict(logits, pred);
      for (std::size_t b = 0; b < config.batch; ++b) {
        correct += pred[b] == y[b] ? 1 : 0;
      }
      seen += config.batch;
      model.backward(grad);
      model.update(lr, config.momentum);
    }
    last_epoch_acc = static_cast<double>(correct) / static_cast<double>(seen);
    if (config.verbose) {
      std::printf("epoch %zu: loss %.4f acc %.2f%% (lr %.4f)\n", epoch + 1,
                  loss_sum / (static_cast<double>(seen) / config.batch),
                  100.0 * last_epoch_acc, lr);
    }
  }
  return last_epoch_acc;
}

EvalResult evaluate(const Dataset& data, std::size_t batch, const ForwardFn& forward) {
  EvalResult result;
  Tensor<float> x, grad;
  std::vector<int> y, pred;
  double loss_sum = 0.0;
  std::size_t batches = 0;
  for (std::size_t start = 0; start + batch <= data.size(); start += batch) {
    fill_batch(data, start, batch, x, y);
    const Tensor<float>& logits = forward(x);
    loss_sum += softmax_xent(logits, y, grad);
    ++batches;
    predict(logits, pred);
    for (std::size_t b = 0; b < batch; ++b) {
      result.accuracy += pred[b] == y[b] ? 1.0 : 0.0;
    }
    result.samples += batch;
  }
  if (result.samples != 0) {
    result.accuracy /= static_cast<double>(result.samples);
    result.avg_loss = loss_sum / static_cast<double>(batches);
  }
  return result;
}

EvalResult evaluate_fp32(SequentialModel& model, const Dataset& data, std::size_t batch) {
  return evaluate(data, batch, [&](const Tensor<float>& x) -> const Tensor<float>& {
    return model.forward(x, /*train=*/false);
  });
}

}  // namespace lowino
