#include "quant/calibration.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "profile/profiler.h"

namespace lowino {

CalibrationResult calibrate_kl(const Histogram& hist, std::size_t quant_levels,
                               double min_coverage) {
  ProfileSpan span(ProfileStage::kCalibration);
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
  // The sweep finds level boundaries floor(n / quant_levels) by a
  // multiply-shift that is exact while n < 2^40 / quant_levels; boundary
  // numerators reach quant_levels * bins (so: below 67M bins at 128 levels).
  const double levels_sq = static_cast<double>(quant_levels) * static_cast<double>(quant_levels);
  if (quant_levels == 0 || static_cast<double>(n_bins) * levels_sq >= 0x1p40) {
    throw std::invalid_argument(
        "calibrate_kl: quant_levels must be positive and bins x quant_levels^2 below 2^40");
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
  // quantizes the bins into quant_levels levels, level l covering bins
  // [s_l, s_{l+1}) with s_l = floor(l * i / quant_levels), and spreads each
  // level's mass C evenly over its nz non-empty bins: q = C / (nz * Q), with
  // Q the mass of all levels. A level of mass m = C / total that lies below
  // bin i-1 therefore contributes
  //   sum r log r - m log q = sum r log r - m (log m - log nz) + m log(Q / total).
  // The r log r and m log(Q / total) parts telescope over the levels, and
  // the middle part depends only on the level's start and width, so it is
  // tabulated once per (start, width). A threshold then costs one table
  // lookup and add per level. The last level, whose p excludes bin i-1, is
  // priced on its own. (q never needs the oracle's 1e-12 floor here:
  // q >= 1 / (nz * total), which stays above it below 1e12 / nz samples.)
  //
  // Widths are floor(i / quant_levels) or one more. For quant_levels with an
  // odd factor, i / quant_levels is inexact in double, and the oracle's
  // floor(l * (i / quant_levels)) can land one bin below an exact integer
  // boundary; such boundaries (only where l * i is a multiple of
  // quant_levels) are recomputed the oracle's way, which widens the widths
  // by one on either side.
  const std::size_t levels = quant_levels;
  const std::size_t max_width = n_bins / levels + 2;
  std::vector<double> log_int(max_width + 1, 0.0);
  for (std::size_t k = 1; k <= max_width; ++k) log_int[k] = std::log(static_cast<double>(k));
  std::vector<std::vector<double>> level_terms(max_width + 1);
  std::vector<const double*> terms(max_width + 1, nullptr);
  // Extends the table of width w to every start s with s + w <= i. The
  // thresholds only grow, so each needed term is computed exactly once.
  auto cover = [&](std::size_t w, std::size_t i) {
    std::vector<double>& t = level_terms[w];
    if (t.capacity() == 0) t.reserve(n_bins - w + 1);  // terms[w] never moves
    for (std::size_t s = t.size(); s + w <= i; ++s) {
      const std::uint64_t nz = nonzero[s + w] - nonzero[s];
      const double m = mass(s, s + w);
      t.push_back(nz == 0 ? 0.0 : m * (std::log(m) - log_int[nz]));
    }
    terms[w] = t.data();
  };

  // floor(n / quant_levels) as (n * magic) >> 40 (the range check above).
  const std::uint64_t magic = (std::uint64_t{1} << 40) / levels + 1;
  const std::size_t odd_part = levels >> std::countr_zero(levels);
  constexpr double kEps = 1e-12;  // q floor where p has mass but q has none
  const double log_eps = std::log(kEps);
  double best_kl = std::numeric_limits<double>::infinity();
  std::size_t best_i = n_bins;
  for (std::size_t i = i_floor; i <= n_bins; ++i) {
    const std::size_t last = i - 1;
    const std::size_t a = i / levels;
    const double bins_per_level = static_cast<double>(i) / static_cast<double>(levels);
    // bins_per_level is exact iff the odd part of quant_levels divides i; then
    // every boundary is the exact integer one.
    const bool exact = i % odd_part == 0;
    auto oracle_boundary = [&](std::size_t l) {
      return std::min(i, static_cast<std::size_t>(static_cast<double>(l) * bins_per_level));
    };
    if (exact) {
      cover(a, i);
      if (i % levels != 0) cover(a + 1, i);
    } else {
      for (std::size_t w = a - 1; w <= a + 2; ++w) cover(w, i);
    }
    // Bins from the last level's stop up to i belong to no level: q is 0.
    const std::size_t covered = exact ? i : oracle_boundary(levels);
    const std::uint64_t q_total = cum[covered];
    double kl = 0.0;
    if (q_total != 0) {
      // Sum the tabulated terms of the levels below bin i-1: all of them
      // when covered < i, else all but the last. Boundary l + 1 is
      // floor((l + 1) * i / quant_levels), from the running numerator n, so
      // no boundary waits on the one before it; four partial sums keep the
      // add chain short.
      const std::size_t full_levels = covered == i ? levels - 1 : levels;
      std::size_t start = 0, n = 0;
      auto level = [&](std::size_t l) {
        n += i;
        std::size_t stop = (n * magic) >> 40;
        if (!exact && n == stop * levels) stop = oracle_boundary(l + 1);
        const double t = terms[stop - start][start];
        start = stop;
        return t;
      };
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      std::size_t l = 0;
      for (; l + 4 <= full_levels; l += 4) {
        s0 += level(l);
        s1 += level(l + 1);
        s2 += level(l + 2);
        s3 += level(l + 3);
      }
      for (; l < full_levels; ++l) s0 += level(l);
      const double log_q_share = std::log(static_cast<double>(q_total) / total);
      kl = rlogr[last] - ((s0 + s1) + (s2 + s3)) +
           mass(0, std::min(last, covered)) * log_q_share;
      double log_q_last = log_eps;
      if (covered == i) {
        // The last level [start, i): bin i-1 is priced with its outliers below.
        const std::uint64_t nz = nonzero[i] - nonzero[start];
        if (nz != 0) {
          const double log_share = std::log(mass(start, i)) - log_int[nz];
          kl -= mass(start, last) * log_share;
          if (counts[last] != 0) log_q_last = log_share - log_q_share;
        }
      } else if (covered < last) {
        kl -= mass(covered, last) * log_eps;
      }
      const double p_last = mass(last, n_bins);  // bin i-1 plus the outliers
      if (p_last > 0.0) kl += p_last * (std::log(p_last) - log_q_last);
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
