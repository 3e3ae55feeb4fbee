#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cloudmedia::util {

void SummaryStats::add(double x) noexcept {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void SummaryStats::merge(const SummaryStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double SummaryStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double SummaryStats::stddev() const noexcept { return std::sqrt(variance()); }

void TimeSeries::add(double t, double v) {
  CM_EXPECTS(times_.empty() || t >= times_.back());
  times_.push_back(t);
  values_.push_back(v);
}

double TimeSeries::time_at(std::size_t i) const {
  CM_EXPECTS(i < times_.size());
  return times_[i];
}

double TimeSeries::value_at(std::size_t i) const {
  CM_EXPECTS(i < values_.size());
  return values_[i];
}

double TimeSeries::mean_over(double t0, double t1) const {
  CM_EXPECTS(t0 <= t1);
  double acc = 0.0;
  std::size_t n = 0;
  const auto lo = std::lower_bound(times_.begin(), times_.end(), t0);
  for (auto it = lo; it != times_.end() && *it < t1; ++it) {
    acc += values_[static_cast<std::size_t>(it - times_.begin())];
    ++n;
  }
  return n ? acc / static_cast<double>(n) : 0.0;
}

double TimeSeries::mean() const {
  if (values_.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values_) acc += v;
  return acc / static_cast<double>(values_.size());
}

double TimeSeries::max_value() const {
  double best = -std::numeric_limits<double>::infinity();
  for (double v : values_) best = std::max(best, v);
  return values_.empty() ? 0.0 : best;
}

double TimeSeries::max_over(double t0, double t1) const {
  CM_EXPECTS(t0 <= t1);
  double best = -std::numeric_limits<double>::infinity();
  bool any = false;
  const auto lo = std::lower_bound(times_.begin(), times_.end(), t0);
  for (auto it = lo; it != times_.end() && *it < t1; ++it) {
    best = std::max(best, values_[static_cast<std::size_t>(it - times_.begin())]);
    any = true;
  }
  return any ? best : 0.0;
}

double TimeSeries::percentile_over(double t0, double t1, double p) const {
  CM_EXPECTS(t0 <= t1);
  std::vector<double> window;
  const auto lo = std::lower_bound(times_.begin(), times_.end(), t0);
  for (auto it = lo; it != times_.end() && *it < t1; ++it) {
    window.push_back(values_[static_cast<std::size_t>(it - times_.begin())]);
  }
  return percentile(std::move(window), p);
}

TimeSeries TimeSeries::resample(double t0, double width) const {
  CM_EXPECTS(width > 0.0);
  TimeSeries out;
  if (times_.empty()) return out;
  std::size_t i = 0;
  while (i < times_.size() && times_[i] < t0) ++i;
  while (i < times_.size()) {
    const double window =
        t0 + std::floor((times_[i] - t0) / width) * width;
    double acc = 0.0;
    std::size_t n = 0;
    while (i < times_.size() && times_[i] < window + width) {
      acc += values_[i];
      ++n;
      ++i;
    }
    out.add(window, acc / static_cast<double>(n));
  }
  return out;
}

double percentile(std::vector<double> values, double p) {
  CM_EXPECTS(p >= 0.0 && p <= 100.0);
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

LinearFit linear_fit(const std::vector<double>& x, const std::vector<double>& y) {
  CM_EXPECTS(x.size() == y.size());
  CM_EXPECTS(x.size() >= 2);
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  LinearFit fit;
  if (std::abs(denom) < 1e-12) return fit;  // vertical data: report zeros
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = y[i] - (fit.intercept + fit.slope * x[i]);
    ss_res += e * e;
  }
  fit.r2 = ss_tot > 1e-12 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

}  // namespace cloudmedia::util
