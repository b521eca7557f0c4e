// Reference KL-divergence calibration: the direct O(bins^2) threshold sweep
// that quant/calibration.cc's prefix-sum sweep must reproduce.
//
// For every candidate threshold it materialises the clipped reference
// distribution p and the quantized-then-expanded candidate q bin by bin and
// sums p log(p/q) over all kept bins. That is slow (one log per bin per
// threshold) but transparently Eq. 7, which makes it the oracle for the
// chosen bin of calibrate_kl.
#pragma once

#include <cstddef>
#include <span>

#include "quant/calibration.h"
#include "quant/histogram.h"

namespace lowino {
namespace testing {

/// Discrete KL divergence between two (unnormalized) distributions; zero
/// q-mass where p has mass is smoothed with a 1e-12 probability floor.
/// Returns 0 when either distribution has no mass.
double kl_divergence(std::span<const double> p, std::span<const double> q);

/// KL divergence of keeping bins [0, i) (1 <= i <= bins): the clipped
/// reference distribution against its quant_levels-level quantization, built
/// bin by bin. O(bins) with one log per non-empty bin.
double kl_at_threshold(const Histogram& hist, std::size_t i, std::size_t quant_levels);

/// The O(bins^2) sweep of kl_at_threshold: same arguments, early returns
/// and coverage floor as calibrate_kl, with a strict `<` between thresholds
/// (the smallest threshold wins an exact tie).
CalibrationResult calibrate_kl_reference(const Histogram& hist,
                                         std::size_t quant_levels = 128,
                                         double min_coverage = 0.999);

}  // namespace testing
}  // namespace lowino
