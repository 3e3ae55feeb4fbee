#include "predict/forecaster.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace cloudmedia::predict {

namespace {

double clamp_rate(double x) noexcept { return x > 0.0 ? x : 0.0; }

}  // namespace

// --- moving average ---------------------------------------------------------

MovingAverageForecaster::MovingAverageForecaster(int window)
    : window_(window), ring_(static_cast<std::size_t>(std::max(window, 1))) {
  CM_EXPECTS(window >= 1);
}

void MovingAverageForecaster::observe(double value) {
  CM_EXPECTS(value >= 0.0);
  ring_[next_] = value;
  next_ = (next_ + 1) % ring_.size();
  filled_ = std::min(filled_ + 1, ring_.size());
}

double MovingAverageForecaster::forecast() const {
  if (filled_ == 0) return 0.0;
  const double sum = std::accumulate(ring_.begin(),
                                     ring_.begin() + static_cast<long>(filled_),
                                     0.0);
  return sum / static_cast<double>(filled_);
}

// --- EWMA -------------------------------------------------------------------

EwmaForecaster::EwmaForecaster(double alpha) : alpha_(alpha) {
  CM_EXPECTS(alpha > 0.0 && alpha <= 1.0);
}

void EwmaForecaster::observe(double value) {
  CM_EXPECTS(value >= 0.0);
  level_ = seen_ ? (1.0 - alpha_) * level_ + alpha_ * value : value;
  seen_ = true;
}

double EwmaForecaster::forecast() const { return seen_ ? level_ : 0.0; }

// --- Holt linear ------------------------------------------------------------

HoltForecaster::HoltForecaster(double alpha, double beta)
    : alpha_(alpha), beta_(beta) {
  CM_EXPECTS(alpha > 0.0 && alpha <= 1.0);
  CM_EXPECTS(beta >= 0.0 && beta <= 1.0);
}

void HoltForecaster::observe(double value) {
  CM_EXPECTS(value >= 0.0);
  if (seen_ == 0) {
    level_ = value;
    trend_ = 0.0;
  } else if (seen_ == 1) {
    // Standard initialization: the first difference seeds the trend.
    trend_ = value - level_;
    level_ = value;
  } else {
    const double prev_level = level_;
    level_ = alpha_ * value + (1.0 - alpha_) * (level_ + trend_);
    trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
  }
  ++seen_;
}

double HoltForecaster::forecast() const {
  if (seen_ == 0) return 0.0;
  return clamp_rate(level_ + trend_);
}

// --- seasonal EWMA profile ---------------------------------------------------

SeasonalEwmaForecaster::SeasonalEwmaForecaster(int period, double alpha,
                                               double blend)
    : period_(period),
      alpha_(alpha),
      blend_(blend),
      profile_(static_cast<std::size_t>(std::max(period, 1)), -1.0) {
  CM_EXPECTS(period >= 1);
  CM_EXPECTS(alpha > 0.0 && alpha <= 1.0);
  CM_EXPECTS(blend >= 0.0 && blend <= 1.0);
}

void SeasonalEwmaForecaster::observe(double value) {
  CM_EXPECTS(value >= 0.0);
  double& slot = profile_[static_cast<std::size_t>(next_slot_)];
  slot = slot < 0.0 ? value : (1.0 - alpha_) * slot + alpha_ * value;
  next_slot_ = (next_slot_ + 1) % period_;
  last_ = value;
  seen_ = true;
}

double SeasonalEwmaForecaster::forecast() const {
  if (!seen_) return 0.0;
  const double seasonal = profile_[static_cast<std::size_t>(next_slot_)];
  if (seasonal < 0.0) return last_;  // slot never seen: persistence
  return clamp_rate(blend_ * seasonal + (1.0 - blend_) * last_);
}

double SeasonalEwmaForecaster::profile(int slot) const {
  CM_EXPECTS(slot >= 0 && slot < period_);
  return profile_[static_cast<std::size_t>(slot)];
}

// --- Holt–Winters additive ---------------------------------------------------

HoltWintersForecaster::HoltWintersForecaster(double alpha, double beta,
                                             double gamma, int period)
    : alpha_(alpha),
      beta_(beta),
      gamma_(gamma),
      period_(period),
      seasonal_(static_cast<std::size_t>(std::max(period, 1)), 0.0) {
  CM_EXPECTS(alpha > 0.0 && alpha <= 1.0);
  CM_EXPECTS(beta >= 0.0 && beta <= 1.0);
  CM_EXPECTS(gamma >= 0.0 && gamma <= 1.0);
  CM_EXPECTS(period >= 2);
}

void HoltWintersForecaster::observe(double value) {
  CM_EXPECTS(value >= 0.0);
  if (!initialized_) {
    warmup_.push_back(value);
    if (warmup_.size() == static_cast<std::size_t>(period_)) {
      // First period done: level = period mean, seasonal = deviations,
      // trend = mean first difference across the period.
      const double mean =
          std::accumulate(warmup_.begin(), warmup_.end(), 0.0) /
          static_cast<double>(period_);
      for (int s = 0; s < period_; ++s) {
        seasonal_[static_cast<std::size_t>(s)] =
            warmup_[static_cast<std::size_t>(s)] - mean;
      }
      level_ = mean;
      trend_ = (warmup_.back() - warmup_.front()) /
               static_cast<double>(period_ - 1) / static_cast<double>(period_);
      next_slot_ = 0;
      initialized_ = true;
      warmup_.clear();
      warmup_.shrink_to_fit();
    } else {
      // Behave like persistence-with-trend while warming up.
      level_ = value;
    }
    return;
  }

  double& season = seasonal_[static_cast<std::size_t>(next_slot_)];
  const double prev_level = level_;
  level_ = alpha_ * (value - season) + (1.0 - alpha_) * (level_ + trend_);
  trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
  season = gamma_ * (value - level_) + (1.0 - gamma_) * season;
  next_slot_ = (next_slot_ + 1) % period_;
}

double HoltWintersForecaster::forecast() const {
  if (!initialized_) return level_;  // warmup: last value
  return clamp_rate(level_ + trend_ +
                    seasonal_[static_cast<std::size_t>(next_slot_)]);
}

double HoltWintersForecaster::seasonal(int slot) const {
  CM_EXPECTS(slot >= 0 && slot < period_);
  return seasonal_[static_cast<std::size_t>(slot)];
}

// --- factory ------------------------------------------------------------------

std::string to_string(ForecasterKind kind) {
  switch (kind) {
    case ForecasterKind::kPersistence: return "persistence";
    case ForecasterKind::kMovingAverage: return "moving-average";
    case ForecasterKind::kEwma: return "ewma";
    case ForecasterKind::kHolt: return "holt";
    case ForecasterKind::kSeasonalNaive: return "seasonal-naive";
    case ForecasterKind::kSeasonalEwma: return "seasonal-ewma";
    case ForecasterKind::kHoltWinters: return "holt-winters";
  }
  throw util::PreconditionError("unknown ForecasterKind");
}

const std::vector<ForecasterKind>& all_forecaster_kinds() {
  static const std::vector<ForecasterKind> kinds = {
      ForecasterKind::kPersistence,  ForecasterKind::kMovingAverage,
      ForecasterKind::kEwma,         ForecasterKind::kHolt,
      ForecasterKind::kSeasonalNaive, ForecasterKind::kSeasonalEwma,
      ForecasterKind::kHoltWinters,
  };
  return kinds;
}

std::unique_ptr<Forecaster> make_forecaster(ForecasterKind kind) {
  constexpr int kPeriod = 24;  // hourly cadence, daily season
  constexpr double kAlpha = 0.5;
  constexpr double kBeta = 0.2;
  switch (kind) {
    case ForecasterKind::kPersistence:
      return std::make_unique<EwmaForecaster>(1.0);
    case ForecasterKind::kMovingAverage:
      return std::make_unique<MovingAverageForecaster>(3);
    case ForecasterKind::kEwma:
      return std::make_unique<EwmaForecaster>(kAlpha);
    case ForecasterKind::kHolt:
      return std::make_unique<HoltForecaster>(kAlpha, kBeta);
    case ForecasterKind::kSeasonalNaive:
      return std::make_unique<SeasonalEwmaForecaster>(kPeriod, 1.0, 1.0);
    case ForecasterKind::kSeasonalEwma:
      return std::make_unique<SeasonalEwmaForecaster>(kPeriod, kAlpha, 0.7);
    case ForecasterKind::kHoltWinters:
      return std::make_unique<HoltWintersForecaster>(kAlpha, kBeta, 0.3,
                                                     kPeriod);
  }
  throw util::PreconditionError("unknown ForecasterKind");
}

}  // namespace cloudmedia::predict
