#include "nn/dataset.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/rng.h"

namespace lowino {
namespace {

constexpr const char* kClassNames[10] = {
    "h-bar", "v-bar", "diagonal", "square", "ring", "disk", "cross", "checker", "x-shape",
    "two-dots"};

/// Draws one shape of class `label` into img (hw x hw, zero-initialized).
void draw_shape(int label, std::size_t hw, Rng& rng, float* img) {
  const auto fhw = static_cast<float>(hw);
  const float cx = fhw / 2.0f + rng.uniform(-2.0f, 2.0f);
  const float cy = fhw / 2.0f + rng.uniform(-2.0f, 2.0f);
  const float thickness = 1.0f + rng.uniform(0.0f, 1.2f);
  const float radius = fhw * 0.28f + rng.uniform(-1.5f, 1.5f);
  const float amp = rng.uniform(0.7f, 1.3f);

  for (std::size_t y = 0; y < hw; ++y) {
    for (std::size_t x = 0; x < hw; ++x) {
      const float fx = static_cast<float>(x) - cx;
      const float fy = static_cast<float>(y) - cy;
      const float dist = std::sqrt(fx * fx + fy * fy);
      bool on = false;
      switch (label) {
        case 0: on = std::abs(fy) <= thickness; break;                       // h-bar
        case 1: on = std::abs(fx) <= thickness; break;                       // v-bar
        case 2: on = std::abs(fx - fy) <= thickness * 1.2f; break;           // diagonal
        case 3: on = std::max(std::abs(fx), std::abs(fy)) <= radius * 0.7f; break;  // square
        case 4: on = std::abs(dist - radius) <= thickness; break;            // ring
        case 5: on = dist <= radius * 0.75f; break;                          // disk
        case 6: on = std::abs(fx) <= thickness || std::abs(fy) <= thickness; break;  // cross
        case 7:  // checkerboard
          on = (((x / 2) + (y / 2)) % 2) == 0;
          break;
        case 8:  // x-shape
          on = std::abs(fx - fy) <= thickness || std::abs(fx + fy) <= thickness;
          break;
        case 9:  // two dots
          on = std::hypot(fx - radius * 0.6f, fy) <= thickness + 1.0f ||
               std::hypot(fx + radius * 0.6f, fy) <= thickness + 1.0f;
          break;
        default: break;
      }
      if (on) img[y * hw + x] = amp;
    }
  }
}

}  // namespace

const char* shape_class_name(int label) {
  return label >= 0 && label < 10 ? kClassNames[label] : "?";
}

Dataset make_shape_dataset(std::size_t n, std::uint64_t seed, std::size_t hw) {
  Dataset data;
  data.image_hw = hw;
  data.images.assign(n * hw * hw, 0.0f);
  data.labels.resize(n);
  Rng rng(seed);

  // Balanced labels, shuffled.
  for (std::size_t i = 0; i < n; ++i) data.labels[i] = static_cast<int>(i % 10);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(data.labels[i - 1], data.labels[rng.next_below(i)]);
  }

  for (std::size_t i = 0; i < n; ++i) {
    float* img = data.images.data() + i * hw * hw;
    draw_shape(data.labels[i], hw, rng, img);
    // Additive noise + zero-centering.
    for (std::size_t p = 0; p < hw * hw; ++p) {
      img[p] = img[p] - 0.3f + 0.15f * rng.normal();
    }
  }
  return data;
}

void fill_batch(const Dataset& data, std::size_t first, std::size_t batch, Tensor<float>& x,
                std::vector<int>& y) {
  const std::size_t hw = data.image_hw;
  assert(first + batch <= data.size());
  x.reshape({batch, data.channels, hw, hw});
  y.resize(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const auto img = data.image(first + b);
    std::copy(img.begin(), img.end(), x.data() + b * img.size());
    y[b] = data.labels[first + b];
  }
}

std::vector<Tensor<float>> image_batches(const Dataset& data, std::size_t n,
                                         std::size_t batch) {
  std::vector<Tensor<float>> batches;
  std::vector<int> labels;
  const std::size_t limit = std::min(n, data.size());
  for (std::size_t first = 0; first + batch <= limit; first += batch) {
    fill_batch(data, first, batch, batches.emplace_back(), labels);
  }
  return batches;
}

}  // namespace lowino
