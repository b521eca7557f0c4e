// KL-divergence threshold calibration (Eq. 7 of the paper; Migacz's TensorRT
// procedure): choose the saturation threshold tau minimizing
//   D_KL( P(X) || P(Q_tau(X)) )
// over candidate thresholds, where P is the activation distribution.
#pragma once

#include "quant/histogram.h"
#include "quant/quantize.h"

namespace lowino {

struct CalibrationResult {
  float tau = 0.0f;       ///< chosen saturation threshold
  double kl = 0.0;        ///< KL divergence at the chosen threshold
  std::size_t bin = 0;    ///< histogram bin index of the threshold
};

/// Runs the KL sweep over a collected histogram. `quant_levels` is the number
/// of positive quantization levels (127 for symmetric INT8). Returns the
/// max-abs threshold if the histogram is empty or degenerate.
///
/// `min_coverage` floors the threshold at the quantile keeping that fraction
/// of the observed mass. Raw KL minimization over-clips when the calibration
/// set is small (sparse histograms make the divergence estimate noisy); the
/// coverage floor keeps the sweep's outlier-clipping behaviour while bounding
/// the damage. Set to 0 for the unmodified TensorRT-style sweep.
///
/// Cost: O(bins x quant_levels) table lookups and adds, and O(bins x bins /
/// quant_levels) logs. A level's term m (log m - log nz) depends only on its
/// start and width, and widths are floor or ceil of threshold / quant_levels,
/// so each term is tabulated once; the r log r and mass sums telescope
/// through prefix sums, and level boundaries come from integer arithmetic. A
/// candidate threshold then costs one lookup and add per level plus three
/// logs (about 0.3-0.6 ms per 2048-bin histogram). The O(bins^2) sweep it
/// replaces is kept as the test oracle (testing/kl_oracle.h); both pick the
/// same bin except on rounding ties (see below). Each sweep records a
/// ProfileStage::kCalibration span.
///
/// Ties: a larger threshold replaces the best one only if its KL is smaller
/// by more than 1e-12 (KL is clamped at >= 0), so on a flat KL curve the
/// smallest threshold wins, as an exact strict < would have it. Where two
/// thresholds tie in exact arithmetic, the oracle's last-bit noise can pick
/// the larger one.
///
/// Scale invariance: the sweep reads the counts only through ratios of
/// integer counts, each rounded once, so multiplying all counts by an
/// integer gives a bit-identical bin, tau and KL. Calibrating on every
/// batch replicated k times therefore gives exactly the scales of one copy.
///
/// Non-finite values never reach the sweep: Histogram::collect ignores them.
///
/// Throws std::invalid_argument when a histogram with more bins than
/// quant_levels is swept with quant_levels 0, or with bins x quant_levels^2
/// at or past 2^40, where the sweep's integer level boundaries would lose
/// exactness (67M bins at 128 levels).
CalibrationResult calibrate_kl(const Histogram& hist, std::size_t quant_levels = 128,
                               double min_coverage = 0.999);

/// Convenience: KL-calibrated QuantParams for a histogram.
QuantParams calibrate_params(const Histogram& hist);

}  // namespace lowino
