// Procedural 10-class shape-classification dataset.
//
// Substitute for ImageNet in the Table 3 accuracy experiment (see DESIGN.md):
// grayscale images of parametric shapes with positional jitter, intensity
// jitter and additive Gaussian noise. Deterministic given the seed; hard
// enough that an untrained network scores ~10% and a small trained CNN
// scores >90%, so quantization-induced accuracy loss is measurable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace lowino {

struct Dataset {
  std::size_t image_hw = 16;
  std::size_t channels = 1;
  std::size_t num_classes = 10;
  std::vector<float> images;  ///< [n][1][hw][hw]
  std::vector<int> labels;    ///< [n]

  std::size_t size() const { return labels.size(); }
  std::span<const float> image(std::size_t i) const {
    const std::size_t n = channels * image_hw * image_hw;
    return {images.data() + i * n, n};
  }
};

/// Generates `n` samples (labels balanced round-robin, order shuffled).
Dataset make_shape_dataset(std::size_t n, std::uint64_t seed, std::size_t hw = 16);

/// Copies samples [first, first + batch) into an NCHW batch tensor + labels.
void fill_batch(const Dataset& data, std::size_t first, std::size_t batch, Tensor<float>& x,
                std::vector<int>& y);

/// The first `n` samples (at most the whole dataset) as `batch`-sized NCHW
/// tensors, a trailing partial batch dropped: the calibration batches of
/// InferenceSession::compile, e.g. the paper's "~500 unlabeled sample images"
/// (Eq. 7) as 16 batches of 32.
std::vector<Tensor<float>> image_batches(const Dataset& data, std::size_t n,
                                         std::size_t batch);

const char* shape_class_name(int label);

}  // namespace lowino
