#include "lowino/scales.h"

#include "quant/calibration.h"

namespace lowino {

WinogradScales::WinogradScales(std::size_t t_elems, bool per_position, std::size_t k_padded,
                               bool per_channel_filters)
    : t_elems_(t_elems),
      k_padded_(k_padded),
      per_position_(per_position),
      per_channel_filters_(per_channel_filters) {
  input_.assign(per_position_ ? t_elems_ : 1, QuantParams{});
  // Filter scales are always per position: filters are known offline, so
  // coarsening them buys nothing and clips transformed values at positions
  // whose abs-max exceeds the shared scale. Only the input granularity is a
  // calibration-cost trade-off; per_channel_filters controls the k dimension.
  filter_.assign(t_elems_ * (per_channel_filters_ ? k_padded_ : 1), QuantParams{});
}

void WinogradScales::build_dequant_table() {
  dequant_.assign(t_elems_ * k_padded_, 0.0f);
  for (std::size_t t = 0; t < t_elems_; ++t) {
    const float inv_in = 1.0f / input_scale(t);
    for (std::size_t k = 0; k < k_padded_; ++k) {
      dequant_[t * k_padded_ + k] = inv_in / filter_scale(t, k);
    }
  }
}

WinogradCalibrator::WinogradCalibrator(std::size_t t_elems, bool per_position,
                                       std::size_t bins)
    : per_position_(per_position) {
  histograms_.assign(per_position_ ? t_elems : 1, Histogram(bins));
}

void WinogradCalibrator::collect(std::size_t t, std::span<const float> values) {
  histograms_[per_position_ ? t : 0].collect(values);
}

void WinogradCalibrator::finalize_into(WinogradScales& scales) const {
  // A per-tensor calibrator has one histogram: sweep it once and share it.
  QuantParams params;
  for (std::size_t t = 0; t < scales.t_elems(); ++t) {
    if (per_position_ || t == 0) params = calibrate_params(histogram(t));
    scales.set_input_scale(t, params);
  }
}

bool WinogradCalibrator::empty() const {
  for (const Histogram& h : histograms_) {
    if (!h.empty()) return false;
  }
  return true;
}

}  // namespace lowino
