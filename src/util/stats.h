#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace cloudmedia::util {

/// Streaming summary statistics (count / mean / variance via Welford,
/// min / max). Used for experiment reporting and statistical tests.
class SummaryStats {
 public:
  void add(double x) noexcept;
  void merge(const SummaryStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// An append-only (time, value) series with monotonically non-decreasing
/// timestamps. Provides the aggregations the figure benches need.
class TimeSeries {
 public:
  void add(double t, double v);

  [[nodiscard]] std::size_t size() const noexcept { return times_.size(); }
  [[nodiscard]] bool empty() const noexcept { return times_.empty(); }
  [[nodiscard]] const std::vector<double>& times() const noexcept { return times_; }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }
  [[nodiscard]] double time_at(std::size_t i) const;
  [[nodiscard]] double value_at(std::size_t i) const;

  /// Mean of values with t in [t0, t1).
  [[nodiscard]] double mean_over(double t0, double t1) const;
  /// Mean over the whole series.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max_value() const;
  /// Max of values with t in [t0, t1); 0 when the window is empty.
  [[nodiscard]] double max_over(double t0, double t1) const;
  /// Percentile (0..100, linear interpolation) of values with t in
  /// [t0, t1); 0 when the window is empty.
  [[nodiscard]] double percentile_over(double t0, double t1, double p) const;

  /// Bucket the series into fixed-width windows starting at t0; each output
  /// point is (window start, mean of samples in window). Empty windows are
  /// skipped.
  [[nodiscard]] TimeSeries resample(double t0, double width) const;

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

/// Percentile of a sample (p in [0, 100], linear interpolation between
/// order statistics, numpy-style). Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Ordinary least squares y = a + b x; used by the figure-7 bench to report
/// the linear growth of client-server bandwidth with channel size.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
[[nodiscard]] LinearFit linear_fit(const std::vector<double>& x,
                                   const std::vector<double>& y);

}  // namespace cloudmedia::util
