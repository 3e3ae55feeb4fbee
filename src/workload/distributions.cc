#include "workload/distributions.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/units.h"

namespace cloudmedia::workload {

std::vector<double> zipf_weights(int n, double exponent) {
  CM_EXPECTS(n > 0);
  CM_EXPECTS(exponent >= 0.0);
  std::vector<double> w(static_cast<std::size_t>(n));
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    w[static_cast<std::size_t>(k)] = 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    total += w[static_cast<std::size_t>(k)];
  }
  for (double& x : w) x /= total;
  return w;
}

BoundedPareto::BoundedPareto(double lower, double upper, double shape)
    : lower_(lower), upper_(upper), shape_(shape) {
  CM_EXPECTS(lower > 0.0);
  CM_EXPECTS(upper > lower);
  CM_EXPECTS(shape > 0.0);
}

double BoundedPareto::sample(util::Rng& rng) const {
  return quantile(rng.uniform());
}

double BoundedPareto::quantile(double u) const {
  // Inverse-CDF of the truncated Pareto:
  //   F(x) = (1 - (L/x)^k) / (1 - (L/H)^k)
  CM_EXPECTS(u >= 0.0 && u < 1.0);
  const double lk = std::pow(lower_, shape_);
  const double hk = std::pow(upper_, shape_);
  const double denom = 1.0 - u * (1.0 - lk / hk);
  return lower_ / std::pow(denom, 1.0 / shape_);
}

double BoundedPareto::mean() const noexcept {
  // E[X] = k L^k (H^{1-k} - L^{1-k}) / ((1-k)(1 - (L/H)^k))   for k != 1
  const double k = shape_;
  const double ratio_k = std::pow(lower_ / upper_, k);
  if (std::abs(k - 1.0) < 1e-12) {
    return lower_ * std::log(upper_ / lower_) / (1.0 - lower_ / upper_);
  }
  const double numer =
      k * std::pow(lower_, k) *
      (std::pow(upper_, 1.0 - k) - std::pow(lower_, 1.0 - k));
  return numer / ((1.0 - k) * (1.0 - ratio_k));
}

BoundedPareto BoundedPareto::scaled_to_mean(double target_mean) const {
  CM_EXPECTS(target_mean > 0.0);
  const double factor = target_mean / mean();
  return BoundedPareto(lower_ * factor, upper_ * factor, shape_);
}

DiurnalPattern::DiurnalPattern(double base, std::vector<Peak> peaks)
    : base_(base), peaks_(std::move(peaks)), max_multiplier_(base) {
  CM_EXPECTS(base >= 0.0);
  for (const Peak& p : peaks_) {
    CM_EXPECTS(p.hour >= 0.0 && p.hour < 24.0);
    CM_EXPECTS(p.amplitude >= 0.0);
    CM_EXPECTS(p.width > 0.0);
  }
  for (int minute = 0; minute < 24 * 60; ++minute) {
    max_multiplier_ = std::max(max_multiplier_, multiplier(minute * 60.0));
  }
}

DiurnalPattern DiurnalPattern::paper_default() {
  // Noon and evening flash crowds; amplitudes chosen so the daily mean
  // multiplier is ~1 (base + sum of Gaussian masses / 24 h).
  return DiurnalPattern(0.55, {{12.5, 0.9, 1.5}, {20.5, 1.2, 2.0}});
}

DiurnalPattern DiurnalPattern::flat() { return DiurnalPattern(1.0, {}); }

DiurnalPattern DiurnalPattern::shifted(double hours) const {
  std::vector<Peak> moved = peaks_;
  for (Peak& p : moved) {
    p.hour = std::fmod(std::fmod(p.hour + hours, 24.0) + 24.0, 24.0);
  }
  return DiurnalPattern(base_, std::move(moved));
}

double DiurnalPattern::multiplier(double t) const noexcept {
  const double hour = std::fmod(t / 3600.0, 24.0);
  double m = base_;
  for (const Peak& p : peaks_) {
    // Evaluate the bump at the nearest periodic image of its center.
    double d = std::abs(hour - p.hour);
    d = std::min(d, 24.0 - d);
    m += p.amplitude * std::exp(-0.5 * (d / p.width) * (d / p.width));
  }
  return m;
}

double DiurnalPattern::mean_multiplier() const {
  double acc = 0.0;
  const int samples = 24 * 60;
  for (int minute = 0; minute < samples; ++minute) acc += multiplier(minute * 60.0);
  return acc / samples;
}

PoissonArrivals::PoissonArrivals(std::function<double(double)> rate,
                                 double max_rate, util::Rng rng)
    : rate_(std::move(rate)), max_rate_(max_rate), rng_(rng) {
  CM_EXPECTS(rate_ != nullptr);
  CM_EXPECTS(max_rate_ > 0.0);
}

void PoissonArrivals::refill() {
  // Chunk size balances batching gains against over-drawing: a refill is
  // ~one cache line of tight Rng work, and the buffer is private state of
  // this stream, so pre-drawing never perturbs any other consumer.
  constexpr std::size_t kBatch = 32;
  draws_.resize(kBatch);
  for (Draw& draw : draws_) {
    // Exactly the unbatched loop's stream order: gap, accept, gap, accept…
    draw.gap = rng_.exponential(1.0 / max_rate_);
    draw.accept = rng_.uniform();
  }
  cursor_ = 0;
}

double PoissonArrivals::next_after(double t) {
  // Ogata thinning: candidate gaps at the envelope rate, accepted with
  // probability rate(t)/max_rate.
  double candidate = t;
  for (;;) {
    if (cursor_ == draws_.size()) refill();
    const Draw draw = draws_[cursor_++];
    candidate += draw.gap;
    const double r = rate_(candidate);
    CM_ENSURES(r <= max_rate_ * (1.0 + 1e-9));
    if (r > 0.0 && draw.accept * max_rate_ < r) return candidate;
  }
}

}  // namespace cloudmedia::workload
