#include "nn/graph.h"

#include <sstream>

namespace lowino {

const Tensor<float>& SequentialModel::forward(const Tensor<float>& input, bool train) {
  activations_.resize(layers_.size() + 1);
  activations_[0] = input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward(activations_[i], activations_[i + 1], train);
  }
  return activations_.back();
}

void SequentialModel::backward(const Tensor<float>& grad_logits) {
  grads_.resize(layers_.size() + 1);
  grads_[layers_.size()] = grad_logits;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    layers_[i]->backward(grads_[i + 1], grads_[i]);
  }
}

void SequentialModel::update(float lr, float momentum) {
  for (auto& l : layers_) l->update(lr, momentum);
}

std::size_t SequentialModel::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l->parameter_count();
  return n;
}

std::string SequentialModel::summary() const {
  std::ostringstream os;
  for (const auto& l : layers_) os << l->name() << '\n';
  os << "parameters: " << parameter_count() << '\n';
  return os.str();
}

}  // namespace lowino
