// Absolute-value histogram used by KL-divergence calibration (Eq. 7).
//
// Calibration runs the FP32 network on ~500 sample inputs and records the
// distribution of every tensor to be quantized; the histogram is the compact
// sufficient statistic for the threshold search.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace lowino {

class Histogram {
 public:
  static constexpr std::size_t kDefaultBins = 2048;

  explicit Histogram(std::size_t bins = kDefaultBins);

  /// Adds |values| to the histogram. The first batch sets the range to
  /// 1.25 * max|values|; when later batches exceed it, the histogram doubles
  /// its bin width (merging bins pairwise) until the new maximum fits, so the
  /// result is independent of how the data was batched. An all-zero first
  /// batch defers range selection to the next batch.
  ///
  /// Non-finite values (+-Inf, NaN) are ignored: they count neither in
  /// total() nor in max_abs_seen(), and never move the range. Finite values
  /// near FLT_MAX keep the range finite: bin_width() and edge(bins() - 1)
  /// stay finite (the range stops growing at the widest finite one, and
  /// values past it land in the last bin).
  void collect(std::span<const float> values);

  std::size_t bins() const { return counts_.size(); }
  std::uint64_t count(std::size_t i) const { return counts_[i]; }
  std::uint64_t total() const { return total_; }
  float bin_width() const { return bin_width_; }
  float max_abs_seen() const { return max_abs_seen_; }
  bool empty() const { return total_ == 0; }

  /// Upper edge of bin i (values in bin i satisfy |v| < edge(i)).
  float edge(std::size_t i) const { return bin_width_ * static_cast<float>(i + 1); }

  const std::vector<std::uint64_t>& counts() const { return counts_; }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  float bin_width_ = 0.0f;
  float max_abs_seen_ = 0.0f;
  float max_width_;  ///< widest bin whose range edge(bins() - 1) is finite
};

}  // namespace lowino
