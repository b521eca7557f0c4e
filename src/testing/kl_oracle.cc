#include "testing/kl_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace lowino {
namespace testing {

double kl_divergence(std::span<const double> p, std::span<const double> q) {
  double p_sum = 0.0, q_sum = 0.0;
  for (double v : p) p_sum += v;
  for (double v : q) q_sum += v;
  if (p_sum <= 0.0 || q_sum <= 0.0) return 0.0;
  // Smoothing: a vanishing probability floor avoids log(0) where q is empty
  // but p is not (standard practice in the TensorRT calibration procedure).
  constexpr double kEps = 1e-12;
  double kl = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double pi = p[i] / p_sum;
    if (pi <= 0.0) continue;
    const double qi = std::max(q[i] / q_sum, kEps);
    kl += pi * std::log(pi / qi);
  }
  return kl;
}

double kl_at_threshold(const Histogram& hist, std::size_t i, std::size_t quant_levels) {
  const auto& counts = hist.counts();
  const std::size_t n_bins = counts.size();
  // Reference distribution: bins [0, i), with all clipped outlier mass
  // folded into the last kept bin.
  std::vector<double> p(counts.begin(), counts.begin() + static_cast<std::ptrdiff_t>(i));
  double outliers = 0.0;
  for (std::size_t j = i; j < n_bins; ++j) outliers += static_cast<double>(counts[j]);
  p[i - 1] += outliers;

  // Candidate distribution: quantize the i bins into quant_levels buckets,
  // then expand each bucket's mass uniformly over its originally non-empty
  // bins (empty bins stay empty so the support matches).
  std::vector<double> q(i, 0.0);
  const double bins_per_level = static_cast<double>(i) / static_cast<double>(quant_levels);
  for (std::size_t level = 0; level < quant_levels; ++level) {
    const std::size_t start = static_cast<std::size_t>(level * bins_per_level);
    const std::size_t stop =
        std::min(i, static_cast<std::size_t>((level + 1) * bins_per_level));
    double mass = 0.0;
    std::size_t nonzero = 0;
    for (std::size_t j = start; j < stop; ++j) {
      mass += static_cast<double>(counts[j]);
      if (counts[j] != 0) ++nonzero;
    }
    if (nonzero == 0) continue;
    const double share = mass / static_cast<double>(nonzero);
    for (std::size_t j = start; j < stop; ++j) {
      if (counts[j] != 0) q[j] = share;
    }
  }
  return kl_divergence(p, q);
}

CalibrationResult calibrate_kl_reference(const Histogram& hist, std::size_t quant_levels,
                                         double min_coverage) {
  CalibrationResult result;
  if (hist.empty() || hist.bin_width() == 0.0f) {
    result.tau = hist.max_abs_seen();
    return result;
  }
  const auto& counts = hist.counts();
  const std::size_t n_bins = counts.size();
  if (n_bins <= quant_levels) {
    result.tau = hist.edge(n_bins - 1);
    result.bin = n_bins - 1;
    return result;
  }

  // Coverage floor: smallest bin count keeping min_coverage of the mass.
  std::size_t i_floor = quant_levels;
  if (min_coverage > 0.0) {
    const double want = min_coverage * static_cast<double>(hist.total());
    double cum = 0.0;
    for (std::size_t j = 0; j < n_bins; ++j) {
      cum += static_cast<double>(counts[j]);
      if (cum >= want) {
        i_floor = std::max(i_floor, j + 1);
        break;
      }
    }
  }

  double best_kl = std::numeric_limits<double>::infinity();
  std::size_t best_i = n_bins;
  for (std::size_t i = i_floor; i <= n_bins; ++i) {
    const double kl = kl_at_threshold(hist, i, quant_levels);
    if (kl < best_kl) {
      best_kl = kl;
      best_i = i;
    }
  }

  result.bin = best_i - 1;
  result.tau = hist.edge(best_i - 1);
  result.kl = best_kl;
  return result;
}

}  // namespace testing
}  // namespace lowino
