#pragma once

#include <memory>
#include <string>
#include <vector>

namespace cloudmedia::predict {

/// One-step-ahead arrival-rate forecaster.
///
/// The paper's provisioning algorithm predicts the next interval's demand
/// with the previous interval's measurement ("user arrival patterns in the
/// previous time interval (hour) are used to predict the capacity demand in
/// the next interval", Sec. V-B) and explicitly defers "more accurate
/// prediction method[s] based on historical data collected over more
/// intervals" to future work. This module implements that future work: a
/// family of forecasters that all consume the same per-interval measured
/// means and emit the next interval's estimate.
///
/// Observations arrive at the provisioning cadence (one value per interval,
/// in order); seasonal forecasters express their period in *intervals*
/// (24 for the paper's hourly controller and daily pattern). Forecasts are
/// clamped to be non-negative — a negative arrival rate is meaningless.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Record the measured mean of the interval that just ended.
  virtual void observe(double value) = 0;

  /// Estimate the mean of the next interval. Before any observation this
  /// returns 0 (no information — the controller's bootstrap plan covers
  /// the first interval).
  [[nodiscard]] virtual double forecast() const = 0;
};

/// Mean of the last `window` observations.
class MovingAverageForecaster final : public Forecaster {
 public:
  explicit MovingAverageForecaster(int window);
  void observe(double value) override;
  [[nodiscard]] double forecast() const override;

 private:
  int window_;
  std::vector<double> ring_;
  std::size_t next_ = 0;
  std::size_t filled_ = 0;
};

/// Exponentially weighted moving average with smoothing factor `alpha`
/// (weight on the newest observation). At alpha = 1 it is the paper's
/// predictor: next interval = last interval.
class EwmaForecaster final : public Forecaster {
 public:
  explicit EwmaForecaster(double alpha);
  void observe(double value) override;
  [[nodiscard]] double forecast() const override;

 private:
  double alpha_;
  double level_ = 0.0;
  bool seen_ = false;
};

/// Holt's linear (double-exponential) smoothing: level + trend. Reacts to
/// ramps — the flanks of the paper's flash crowds — where persistence lags
/// a full interval.
class HoltForecaster final : public Forecaster {
 public:
  HoltForecaster(double alpha, double beta);
  void observe(double value) override;
  [[nodiscard]] double forecast() const override;

  [[nodiscard]] double level() const noexcept { return level_; }
  [[nodiscard]] double trend() const noexcept { return trend_; }

 private:
  double alpha_;
  double beta_;
  double level_ = 0.0;
  double trend_ = 0.0;
  int seen_ = 0;
};

/// Per-slot EWMA over previous periods, blended with persistence:
///   forecast = blend · profile[next slot] + (1 − blend) · last value.
/// The library form of `core::SeasonalPolicy`'s predictor. At alpha = 1,
/// blend = 1 it is seasonal-naive: the value observed at the same slot of
/// the previous period (this hour yesterday), and persistence until a full
/// period has been observed.
class SeasonalEwmaForecaster final : public Forecaster {
 public:
  SeasonalEwmaForecaster(int period, double alpha, double blend);
  void observe(double value) override;
  [[nodiscard]] double forecast() const override;

  /// Profile estimate for a slot; negative = that slot never observed.
  [[nodiscard]] double profile(int slot) const;

 private:
  int period_;
  double alpha_;
  double blend_;
  std::vector<double> profile_;  ///< per-slot EWMA, −1 marks unseen
  int next_slot_ = 0;            ///< slot of the *next* observation
  double last_ = 0.0;
  bool seen_ = false;
};

/// Additive Holt–Winters: level + trend + per-slot seasonal component.
/// The first full period initializes the seasonal indices (deviations from
/// the running mean); until then it behaves like Holt.
class HoltWintersForecaster final : public Forecaster {
 public:
  HoltWintersForecaster(double alpha, double beta, double gamma, int period);
  void observe(double value) override;
  [[nodiscard]] double forecast() const override;

  [[nodiscard]] double level() const noexcept { return level_; }
  [[nodiscard]] double trend() const noexcept { return trend_; }
  [[nodiscard]] double seasonal(int slot) const;

 private:
  double alpha_;
  double beta_;
  double gamma_;
  int period_;
  double level_ = 0.0;
  double trend_ = 0.0;
  std::vector<double> seasonal_;
  std::vector<double> warmup_;  ///< first-period buffer
  int next_slot_ = 0;
  bool initialized_ = false;    ///< seasonal indices ready
};

/// Forecaster families selectable from configuration / command line.
enum class ForecasterKind {
  kPersistence,
  kMovingAverage,
  kEwma,
  kHolt,
  kSeasonalNaive,
  kSeasonalEwma,
  kHoltWinters,
};

/// The kind's name: its label in reports and its `forecaster=` sweep
/// spelling.
[[nodiscard]] std::string to_string(ForecasterKind kind);
/// All kinds, for parameterized tests and comparison benches.
[[nodiscard]] const std::vector<ForecasterKind>& all_forecaster_kinds();

/// A fresh forecaster of `kind`, parameterized for the paper's hourly
/// cadence and daily season: period 24, window 3, level smoothing
/// alpha 0.5, trend beta 0.2, seasonal gamma 0.3, seasonal blend 0.7.
/// persistence is EWMA at alpha 1; seasonal-naive is seasonal EWMA at
/// alpha 1, blend 1.
[[nodiscard]] std::unique_ptr<Forecaster> make_forecaster(ForecasterKind kind);

}  // namespace cloudmedia::predict
