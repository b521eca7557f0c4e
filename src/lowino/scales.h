// Winograd-domain quantization scales (Section 3).
//
// LoWino quantizes *after* the transforms, so scales are defined in the
// Winograd domain. Because de-quantization happens before the output
// transform (Eq. 3), scales may vary freely per tile position t and per
// output channel k without approximation; the de-quantization table stores
// the combined reciprocal 1 / (alpha_V[t] * alpha_U[t][k]).
#pragma once

#include <cstddef>
#include <vector>

#include "quant/histogram.h"
#include "quant/quantize.h"

namespace lowino {

class WinogradScales {
 public:
  WinogradScales() = default;
  WinogradScales(std::size_t t_elems, bool per_position, std::size_t k_padded,
                 bool per_channel_filters);

  /// Input scale for tile position t.
  float input_scale(std::size_t t) const {
    return input_[per_position_ ? t : 0].scale;
  }
  /// Filter scale for (t, k).
  float filter_scale(std::size_t t, std::size_t k) const {
    return filter_[filter_index(t, k)].scale;
  }

  void set_input_scale(std::size_t t, QuantParams p) { input_[per_position_ ? t : 0] = p; }
  void set_filter_scale(std::size_t t, std::size_t k, QuantParams p) {
    filter_[filter_index(t, k)] = p;
  }

  /// Builds the (t, k) de-quantization table used by the output transform:
  /// dequant[t * k_padded + k] = 1 / (input_scale(t) * filter_scale(t, k)).
  void build_dequant_table();
  const std::vector<float>& dequant_table() const { return dequant_; }

  std::size_t t_elems() const { return t_elems_; }
  std::size_t k_padded() const { return k_padded_; }
  bool per_position() const { return per_position_; }
  bool per_channel_filters() const { return per_channel_filters_; }

 private:
  std::size_t filter_index(std::size_t t, std::size_t k) const {
    return per_channel_filters_ ? t * k_padded_ + k : t;
  }

  std::size_t t_elems_ = 0;
  std::size_t k_padded_ = 0;
  bool per_position_ = true;
  bool per_channel_filters_ = true;
  std::vector<QuantParams> input_;
  std::vector<QuantParams> filter_;
  std::vector<float> dequant_;
};

/// Calibration accumulator: one histogram per tile position (or one overall),
/// fed with transformed-input values by LoWinoConvolution::calibrate().
class WinogradCalibrator {
 public:
  WinogradCalibrator() = default;
  WinogradCalibrator(std::size_t t_elems, bool per_position, std::size_t bins = 2048);

  /// Adds transformed values of tile position t.
  void collect(std::size_t t, std::span<const float> values);

  /// KL-calibrates every position and writes the input scales.
  void finalize_into(WinogradScales& scales) const;

  bool empty() const;

  /// The histogram that calibrates tile position t.
  const Histogram& histogram(std::size_t t) const { return histograms_[per_position_ ? t : 0]; }

 private:
  bool per_position_ = true;
  std::vector<Histogram> histograms_;
};

}  // namespace lowino
