#pragma once

#include <functional>
#include <vector>

#include "util/rng.h"

namespace cloudmedia::workload {

/// Zipf-like popularity over `n` ranks: weight(rank k) ∝ 1 / k^exponent,
/// normalized to sum to 1. The paper deploys "20 video channels with
/// different popularities following a Zipf-like distribution" (Sec. VI-A).
[[nodiscard]] std::vector<double> zipf_weights(int n, double exponent);

/// Bounded (truncated) Pareto distribution on [lower, upper] with shape k.
/// The paper draws peer upload capacities from a Pareto distribution within
/// [180 kbps, 10 Mbps] with shape parameter k = 3 (Sec. VI-A).
class BoundedPareto {
 public:
  BoundedPareto(double lower, double upper, double shape);

  [[nodiscard]] double sample(util::Rng& rng) const;
  /// Inverse CDF at u ∈ [0, 1) (sample() draws quantile(U)).
  [[nodiscard]] double quantile(double u) const;
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double lower() const noexcept { return lower_; }
  [[nodiscard]] double upper() const noexcept { return upper_; }
  [[nodiscard]] double shape() const noexcept { return shape_; }

  /// Return the same-shape distribution with both bounds scaled so the mean
  /// equals `target_mean`. Used by the Fig.-11 sweep, which varies the ratio
  /// of mean peer upload to the streaming rate (Sec. VI-D).
  [[nodiscard]] BoundedPareto scaled_to_mean(double target_mean) const;

 private:
  double lower_;
  double upper_;
  double shape_;
};

/// Diurnal arrival-rate multiplier: a baseline plus Gaussian "flash crowd"
/// bumps, periodic over 24 h. The paper's trace has "a daily pattern with
/// two flash crowds around noon and in the evening" (Sec. VI-A).
class DiurnalPattern {
 public:
  struct Peak {
    double hour;       ///< center of the bump, in [0, 24)
    double amplitude;  ///< added multiplier at the center
    double width;      ///< Gaussian sigma, in hours
  };

  DiurnalPattern(double base, std::vector<Peak> peaks);

  /// Two-flash-crowd pattern calibrated so the daily mean multiplier ≈ 1.
  [[nodiscard]] static DiurnalPattern paper_default();
  /// Constant multiplier 1 (for steady-state tests).
  [[nodiscard]] static DiurnalPattern flat();

  /// The same pattern moved `hours` later in the day (peaks wrap modulo
  /// 24 h). A region `hours` west of the reference sees the same crowds
  /// `hours` later in reference time: shifted(-utc_offset).
  [[nodiscard]] DiurnalPattern shifted(double hours) const;

  [[nodiscard]] double base() const noexcept { return base_; }
  [[nodiscard]] const std::vector<Peak>& peaks() const noexcept {
    return peaks_;
  }

  /// Multiplier at absolute time t (seconds); periodic with period 24 h.
  [[nodiscard]] double multiplier(double t) const noexcept;
  /// Maximum multiplier over the day at 1-minute resolution (used as the
  /// thinning envelope); scanned once, at construction.
  [[nodiscard]] double max_multiplier() const noexcept {
    return max_multiplier_;
  }
  /// Mean multiplier over one day (numeric, 1-minute resolution).
  [[nodiscard]] double mean_multiplier() const;

 private:
  double base_;
  std::vector<Peak> peaks_;
  double max_multiplier_;
};

/// Non-homogeneous Poisson arrival stream via thinning. Deterministic for
/// a given Rng stream regardless of how the caller interleaves other draws.
///
/// Sampling is batched: the (envelope gap, acceptance) draw pairs are
/// pre-drawn from the owned Rng in chunks, in exactly the alternating
/// order the unbatched thinning loop consumed them — every value is the
/// same double from the same stream position, so arrival times are
/// bit-identical while the hot next_after() path reduces to buffer reads
/// plus the (lazy, never pre-evaluated) rate lookup. rate(t) stays lazy on
/// purpose: timed scenario ops may retune the rate function mid-run, and
/// only the *candidate evaluation time* decides what they see.
class PoissonArrivals {
 public:
  /// rate(t) must be <= max_rate for all t; max_rate > 0.
  PoissonArrivals(std::function<double(double)> rate, double max_rate,
                  util::Rng rng);

  /// First arrival strictly after `t`.
  [[nodiscard]] double next_after(double t);

 private:
  /// One thinning iteration's worth of randomness, pre-drawn.
  struct Draw {
    double gap;     ///< exponential envelope inter-candidate gap
    double accept;  ///< uniform acceptance variate
  };

  void refill();

  std::function<double(double)> rate_;
  double max_rate_;
  util::Rng rng_;
  std::vector<Draw> draws_;   ///< pre-drawn chunk (draw-order-preserving)
  std::size_t cursor_ = 0;    ///< next unconsumed entry in draws_
};

}  // namespace cloudmedia::workload
