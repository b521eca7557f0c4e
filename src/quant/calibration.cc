#include "quant/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace lowino {

CalibrationResult calibrate_kl(const Histogram& hist, std::size_t quant_levels,
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

  // Prefix sums over bins [0, j): the integer count, the number of non-empty
  // bins, and the entropy term r log r of the normalised mass r = c / total.
  // Every probability below is a ratio of integer counts rounded once, so
  // scaling all counts by an integer leaves each value, and hence the chosen
  // bin and its KL, unchanged.
  std::vector<std::uint64_t> cum(n_bins + 1, 0), nonzero(n_bins + 1, 0);
  for (std::size_t j = 0; j < n_bins; ++j) {
    cum[j + 1] = cum[j] + counts[j];
    nonzero[j + 1] = nonzero[j] + (counts[j] != 0 ? 1 : 0);
  }
  const double total = static_cast<double>(cum[n_bins]);
  std::vector<double> rlogr(n_bins + 1, 0.0);
  for (std::size_t j = 0; j < n_bins; ++j) {
    const double r = static_cast<double>(counts[j]) / total;
    rlogr[j + 1] = rlogr[j] + (r > 0.0 ? r * std::log(r) : 0.0);
  }
  auto mass = [&](std::size_t a, std::size_t b) {
    return static_cast<double>(cum[b] - cum[a]) / total;
  };

  // Coverage floor: smallest bin count keeping min_coverage of the mass.
  std::size_t i_floor = quant_levels;
  if (min_coverage > 0.0) {
    const double want = min_coverage * static_cast<double>(hist.total());
    for (std::size_t j = 0; j < n_bins; ++j) {
      if (static_cast<double>(cum[j + 1]) >= want) {
        i_floor = std::max(i_floor, j + 1);
        break;
      }
    }
  }

  // Sweep thresholds i (keep bins [0, i)). The reference distribution p is
  // r_j, with the clipped outlier mass folded into bin i-1. The candidate q
  // quantizes the bins into quant_levels levels and spreads each level's
  // mass evenly over its non-empty bins, so within a level every non-empty
  // bin has the same q and the level contributes
  //   sum r log r - (sum r) log q
  // from the prefix sums: O(quant_levels) per threshold, one log per level.
  // Bin i-1 is summed on its own because its p carries the outliers.
  constexpr double kEps = 1e-12;  // q floor where p has mass but q has none
  const double log_eps = std::log(kEps);
  double best_kl = std::numeric_limits<double>::infinity();
  std::size_t best_i = n_bins;
  for (std::size_t i = i_floor; i <= n_bins; ++i) {
    const std::size_t last = i - 1;
    const double bins_per_level = static_cast<double>(i) / static_cast<double>(quant_levels);
    // Bins from the last level's stop up to i belong to no level: q is 0.
    const std::size_t covered =
        std::min(i, static_cast<std::size_t>(quant_levels * bins_per_level));
    const std::uint64_t q_total = cum[covered];
    double kl = 0.0;
    if (q_total != 0) {
      double q_last = kEps;
      for (std::size_t level = 0; level < quant_levels; ++level) {
        const std::size_t start = static_cast<std::size_t>(level * bins_per_level);
        const std::size_t stop =
            std::min(i, static_cast<std::size_t>((level + 1) * bins_per_level));
        const std::uint64_t nz = nonzero[stop] - nonzero[start];
        if (nz == 0) continue;
        const double q = std::max(static_cast<double>(cum[stop] - cum[start]) /
                                      static_cast<double>(q_total) / static_cast<double>(nz),
                                  kEps);
        const std::size_t hi = std::min(stop, last);
        if (hi > start) kl += (rlogr[hi] - rlogr[start]) - mass(start, hi) * std::log(q);
        if (stop == i && counts[last] != 0) q_last = q;
      }
      if (covered < last) {
        kl += (rlogr[last] - rlogr[covered]) - mass(covered, last) * log_eps;
      }
      const double p_last = mass(last, n_bins);  // bin i-1 plus the outliers
      if (p_last > 0.0) kl += p_last * std::log(p_last / q_last);
    }
    // Rounding in the prefix sums can push a perfect fit a hair below zero
    // and reorder near-equal thresholds; a threshold must win by more than
    // kEps, so on a tie the smallest one stays (as with an exact strict <).
    kl = std::max(kl, 0.0);
    if (kl < best_kl - kEps) {
      best_kl = kl;
      best_i = i;
    }
  }

  result.bin = best_i - 1;
  result.tau = hist.edge(best_i - 1);
  result.kl = best_kl;
  return result;
}

QuantParams calibrate_params(const Histogram& hist) {
  return QuantParams::from_threshold(calibrate_kl(hist).tau);
}

}  // namespace lowino
