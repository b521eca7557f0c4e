#include "quant/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lowino {

Histogram::Histogram(std::size_t bins)
    : counts_(bins, 0),
      max_width_(std::nextafter(std::numeric_limits<float>::max() / static_cast<float>(bins),
                                0.0f)) {}

void Histogram::collect(std::span<const float> values) {
  float batch_max = 0.0f;
  for (float v : values) {
    const float a = std::abs(v);
    if (std::isfinite(a)) batch_max = std::max(batch_max, a);
  }
  const std::size_t n = counts_.size();
  const float nf = static_cast<float>(n);
  if (bin_width_ == 0.0f) {
    if (batch_max == 0.0f) return;  // defer range selection until real data arrives
    bin_width_ = 1.25f * batch_max / nf;
    // Near FLT_MAX, 1.25 * batch_max (or the range width * n) overflows to
    // +inf; fall back to the widest finite range instead.
    if (!std::isfinite(bin_width_ * nf)) bin_width_ = max_width_;
    // A sub-normal batch_max (u8-ReLU layers can emit near-degenerate
    // tensors) underflows the division to a sub-normal width whose inverse
    // below is +inf — and size_t(inf) is UB. Floor at the smallest normal
    // float; everything still lands in bin 0, which is what KL wants here.
    bin_width_ = std::max(bin_width_, std::numeric_limits<float>::min());
  }
  // Grow the range by doubling the bin width (merging bins pairwise) until
  // the batch maximum fits. Keeps the histogram batching-order independent.
  // A doubling that would overflow the range stops at max_width_ instead;
  // values beyond it land in the last bin.
  while (batch_max >= bin_width_ * nf && bin_width_ < max_width_) {
    for (std::size_t j = 0; j < n / 2; ++j) {
      counts_[j] = counts_[2 * j] + counts_[2 * j + 1];
    }
    // An odd bin count leaves the top bin unpaired; it maps to bin n / 2.
    if (n % 2 != 0) counts_[n / 2] = counts_[n - 1];
    std::fill(counts_.begin() + static_cast<std::ptrdiff_t>((n + 1) / 2), counts_.end(),
              std::uint64_t{0});
    const float doubled = 2.0f * bin_width_;
    bin_width_ = std::isfinite(doubled * nf) ? doubled : max_width_;
  }
  const float inv_w = 1.0f / bin_width_;
  const std::size_t last = n - 1;
  for (float v : values) {
    const float a = std::abs(v);
    if (!std::isfinite(a)) continue;
    max_abs_seen_ = std::max(max_abs_seen_, a);
    const std::size_t bin = std::min(last, static_cast<std::size_t>(a * inv_w));
    ++counts_[bin];
    ++total_;
  }
}

}  // namespace lowino
