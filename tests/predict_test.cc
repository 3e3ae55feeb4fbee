// Tests for the arrival-rate forecasting library (src/predict) — the
// paper's Sec. V-B future work ("more accurate prediction method based on
// historical data collected over more intervals").

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/demand.h"
#include "expr/config.h"
#include "predict/accuracy.h"
#include "predict/forecaster.h"
#include "predict/policy.h"
#include "sweep/param_grid.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/distributions.h"
#include "workload/viewing.h"

namespace cloudmedia {
namespace {

using predict::ForecasterKind;
using predict::make_forecaster;

/// A seeded stream of rates with exact zeros mixed in (quiet hours).
std::vector<double> seeded_stream(std::uint64_t seed, int n) {
  util::Rng rng(seed);
  std::vector<double> stream(static_cast<std::size_t>(n));
  for (double& v : stream) v = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 9.0);
  return stream;
}

// ---------------------------------------------------------------------------
// Properties shared by every forecaster kind.
// ---------------------------------------------------------------------------

class AllForecasters : public ::testing::TestWithParam<ForecasterKind> {};

TEST_P(AllForecasters, NoObservationForecastsZero) {
  const auto f = make_forecaster(GetParam());
  EXPECT_EQ(f->forecast(), 0.0);
}

TEST_P(AllForecasters, ConstantSignalIsLearnedExactly) {
  const auto f = make_forecaster(GetParam());
  for (int k = 0; k < 120; ++k) f->observe(3.25);
  EXPECT_NEAR(f->forecast(), 3.25, 1e-9)
      << "kind=" << predict::to_string(GetParam());
}

TEST_P(AllForecasters, ForecastIsNonNegativeOnDecayingSignal) {
  const auto f = make_forecaster(GetParam());
  // A crash from a high plateau to zero tempts trend models negative.
  for (int k = 0; k < 30; ++k) f->observe(100.0);
  for (int k = 0; k < 60; ++k) {
    f->observe(std::max(0.0, 100.0 - 10.0 * k));
    EXPECT_GE(f->forecast(), 0.0)
        << "kind=" << predict::to_string(GetParam()) << " step=" << k;
  }
}

TEST_P(AllForecasters, NameRoundTripsThroughFactoryString) {
  // The kind's name is its `forecaster=` spelling in the sweep registry.
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  sweep::apply_parameter(cfg, "forecaster", predict::to_string(GetParam()));
  EXPECT_EQ(cfg.forecaster, GetParam());
  EXPECT_EQ(cfg.strategy, expr::Strategy::kForecast);
}

TEST_P(AllForecasters, RejectsNegativeObservation) {
  const auto f = make_forecaster(GetParam());
  EXPECT_THROW(f->observe(-1.0), util::PreconditionError);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllForecasters,
    ::testing::ValuesIn(predict::all_forecaster_kinds()),
    [](const ::testing::TestParamInfo<ForecasterKind>& info) {
      std::string name = predict::to_string(info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---------------------------------------------------------------------------
// Per-kind behaviour.
// ---------------------------------------------------------------------------

TEST(Persistence, ForecastsExactlyTheLastValue) {
  const auto f = make_forecaster(ForecasterKind::kPersistence);
  for (double v : seeded_stream(11, 200)) {
    f->observe(v);
    EXPECT_EQ(f->forecast(), v);  // bitwise, zeros included
  }
}

TEST(MovingAverage, AveragesExactlyTheWindow) {
  predict::MovingAverageForecaster f(3);
  f.observe(1.0);
  f.observe(2.0);
  EXPECT_DOUBLE_EQ(f.forecast(), 1.5);  // partial window
  f.observe(3.0);
  EXPECT_DOUBLE_EQ(f.forecast(), 2.0);
  f.observe(9.0);  // evicts the 1.0
  EXPECT_DOUBLE_EQ(f.forecast(), (2.0 + 3.0 + 9.0) / 3.0);
}

TEST(MovingAverage, WindowOneIsPersistence) {
  predict::MovingAverageForecaster ma(1);
  const auto last = make_forecaster(ForecasterKind::kPersistence);
  for (double v : {4.0, 0.0, 11.0, 3.0}) {
    ma.observe(v);
    last->observe(v);
    EXPECT_DOUBLE_EQ(ma.forecast(), last->forecast());
  }
}

TEST(MovingAverage, RejectsNonPositiveWindow) {
  EXPECT_THROW(predict::MovingAverageForecaster(0), util::PreconditionError);
}

TEST(Ewma, MatchesTheRecursionExactly) {
  const double alpha = 0.3;
  predict::EwmaForecaster f(alpha);
  double level = 0.0;
  bool first = true;
  for (double v : {10.0, 4.0, 6.0, 6.0, 0.0, 2.0}) {
    f.observe(v);
    level = first ? v : (1 - alpha) * level + alpha * v;
    first = false;
    EXPECT_NEAR(f.forecast(), level, 1e-12);
  }
}

TEST(Ewma, AlphaOneIsPersistence) {
  predict::EwmaForecaster f(1.0);
  f.observe(3.0);
  f.observe(8.0);
  EXPECT_DOUBLE_EQ(f.forecast(), 8.0);
}

TEST(Ewma, RejectsAlphaOutOfRange) {
  EXPECT_THROW(predict::EwmaForecaster(0.0), util::PreconditionError);
  EXPECT_THROW(predict::EwmaForecaster(1.5), util::PreconditionError);
}

TEST(Holt, TracksALinearRampAsymptotically) {
  predict::HoltForecaster f(0.5, 0.3);
  // y = 5 + 2k: after convergence the one-step forecast is exact.
  for (int k = 0; k < 200; ++k) f.observe(5.0 + 2.0 * k);
  EXPECT_NEAR(f.forecast(), 5.0 + 2.0 * 200, 1e-6);
  EXPECT_NEAR(f.trend(), 2.0, 1e-6);
}

TEST(Holt, BeatsPersistenceOnARamp) {
  predict::HoltForecaster holt(0.5, 0.3);
  const auto last = make_forecaster(ForecasterKind::kPersistence);
  predict::ForecastScore holt_score, last_score;
  for (int k = 0; k < 60; ++k) {
    const double actual = 10.0 + 3.0 * k;
    if (k > 5) {
      holt_score.add(holt.forecast(), actual);
      last_score.add(last->forecast(), actual);
    }
    holt.observe(actual);
    last->observe(actual);
  }
  EXPECT_LT(holt_score.mae(), last_score.mae());
  // Persistence under-forecasts every step of a rising ramp.
  EXPECT_DOUBLE_EQ(last_score.under_fraction(), 1.0);
}

TEST(SeasonalNaive, RepeatsThePreviousPeriodExactly) {
  const std::size_t period = 24;  // hourly cadence, daily season
  const auto f = make_forecaster(ForecasterKind::kSeasonalNaive);
  const std::vector<double> stream = seeded_stream(12, 5 * 24);
  for (std::size_t k = 0; k < stream.size(); ++k) {
    f->observe(stream[k]);
    // The next observation is stream[k + 1]; its twin is one period back.
    if (k + 1 >= period) {
      EXPECT_EQ(f->forecast(), stream[k + 1 - period]) << "k=" << k;
    }
  }
}

TEST(SeasonalNaive, FallsBackToPersistenceInFirstPeriod) {
  const auto f = make_forecaster(ForecasterKind::kSeasonalNaive);
  for (double v : seeded_stream(13, 23)) {
    f->observe(v);
    EXPECT_EQ(f->forecast(), v);
  }
}

TEST(SeasonalEwma, LearnsAPeriodicProfile) {
  const int period = 6;
  predict::SeasonalEwmaForecaster f(period, 0.5, 1.0);  // pure profile
  const std::vector<double> wave = {0.0, 2.0, 10.0, 4.0, 1.0, 0.0};
  for (int rep = 0; rep < 12; ++rep) {
    for (double v : wave) f.observe(v);
  }
  for (int s = 0; s < period; ++s) {
    EXPECT_NEAR(f.profile(s), wave[static_cast<std::size_t>(s)], 1e-3);
  }
}

TEST(SeasonalEwma, BlendZeroIsPersistence) {
  predict::SeasonalEwmaForecaster f(24, 0.4, 0.0);
  const auto last = make_forecaster(ForecasterKind::kPersistence);
  for (int k = 0; k < 60; ++k) {
    const double v = std::abs(std::sin(0.3 * k)) * 9.0;
    f.observe(v);
    last->observe(v);
    EXPECT_DOUBLE_EQ(f.forecast(), last->forecast());
  }
}

TEST(HoltWinters, LearnsASeasonalSignalWithTrend) {
  const int period = 12;
  predict::HoltWintersForecaster f(0.3, 0.05, 0.4, period);
  predict::ForecastScore tail_score;
  // y(k) = 20 + 0.5k + 8·sin(2πk/12), strictly positive.
  const auto signal = [&](int k) {
    return 20.0 + 0.5 * k + 8.0 * std::sin(2.0 * M_PI * k / period);
  };
  for (int k = 0; k < 20 * period; ++k) {
    if (k > 10 * period) tail_score.add(f.forecast(), signal(k));
    f.observe(signal(k));
  }
  // One-step error far below the seasonal swing (16 peak-to-trough).
  EXPECT_LT(tail_score.mae(), 1.0);
}

TEST(HoltWinters, OutperformsPersistenceOnSeasonalSignal) {
  const int period = 24;
  predict::HoltWintersForecaster hw(0.3, 0.05, 0.4, period);
  const auto last = make_forecaster(ForecasterKind::kPersistence);
  predict::ForecastScore hw_score, last_score;
  const auto signal = [&](int k) {
    return 10.0 + 6.0 * std::sin(2.0 * M_PI * k / period);
  };
  for (int k = 0; k < 12 * period; ++k) {
    if (k > 3 * period) {
      hw_score.add(hw.forecast(), signal(k));
      last_score.add(last->forecast(), signal(k));
    }
    hw.observe(signal(k));
    last->observe(signal(k));
  }
  EXPECT_LT(hw_score.mae(), 0.4 * last_score.mae());
}

// ---------------------------------------------------------------------------
// Accuracy metrics.
// ---------------------------------------------------------------------------

TEST(ForecastScore, HandComputedMetrics) {
  predict::ForecastScore score;
  score.add(10.0, 8.0);   // over by 2
  score.add(5.0, 9.0);    // under by 4
  score.add(3.0, 3.0);    // exact
  EXPECT_EQ(score.count(), 3u);
  EXPECT_NEAR(score.mae(), (2.0 + 4.0 + 0.0) / 3.0, 1e-12);
  EXPECT_NEAR(score.rmse(), std::sqrt((4.0 + 16.0 + 0.0) / 3.0), 1e-12);
  EXPECT_NEAR(score.bias(), (2.0 - 4.0 + 0.0) / 3.0, 1e-12);
  EXPECT_NEAR(score.mape(), (2.0 / 8.0 + 4.0 / 9.0 + 0.0) / 3.0, 1e-12);
  EXPECT_NEAR(score.under_fraction(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(score.mean_shortfall(), 4.0 / 3.0, 1e-12);
}

TEST(ForecastScore, MapeSkipsZeroActuals) {
  predict::ForecastScore score;
  score.add(1.0, 0.0);
  score.add(6.0, 4.0);
  EXPECT_NEAR(score.mape(), 0.5, 1e-12);  // only the second pair counts
  EXPECT_EQ(score.count(), 2u);
}

TEST(ForecastScore, MergeEqualsPooledStream) {
  predict::ForecastScore a, b, pooled;
  for (int k = 0; k < 10; ++k) {
    const double f = 2.0 + k, x = 3.0 + 0.5 * k;
    (k % 2 ? a : b).add(f, x);
    pooled.add(f, x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_NEAR(a.mae(), pooled.mae(), 1e-12);
  EXPECT_NEAR(a.rmse(), pooled.rmse(), 1e-12);
  EXPECT_NEAR(a.bias(), pooled.bias(), 1e-12);
  EXPECT_NEAR(a.under_fraction(), pooled.under_fraction(), 1e-12);
}

TEST(ForecastScore, EmptyScoreIsAllZero) {
  const predict::ForecastScore score;
  EXPECT_EQ(score.count(), 0u);
  EXPECT_EQ(score.mae(), 0.0);
  EXPECT_EQ(score.rmse(), 0.0);
  EXPECT_EQ(score.mape(), 0.0);
  EXPECT_EQ(score.under_fraction(), 0.0);
}

// ---------------------------------------------------------------------------
// ForecastPolicy: the DemandPolicy adapter.
// ---------------------------------------------------------------------------

core::TrackerReport make_report(double start, double interval,
                                const std::vector<double>& rates) {
  const int j = 6;
  const workload::ViewingBehavior behavior;
  core::TrackerReport report;
  report.interval_start = start;
  report.interval_length = interval;
  for (double rate : rates) {
    core::ChannelObservation obs;
    obs.arrival_rate = rate;
    obs.transfer = behavior.transfer_matrix(j);
    obs.entry = behavior.entry_distribution(j);
    obs.occupancy.assign(6, 0.0);
    obs.mean_peer_uplink = 50'000.0;
    report.channels.push_back(std::move(obs));
  }
  return report;
}

core::VodParameters small_params() {
  core::VodParameters params;
  params.chunks_per_video = 6;
  return params;
}

TEST(ForecastPolicy, PersistenceKindMatchesModelBasedPolicy) {
  const core::VodParameters params = small_params();
  core::DemandEstimatorConfig config;
  config.occupancy_floor = false;

  predict::ForecastPolicy forecast(params, config,
                                   ForecasterKind::kPersistence);
  core::ModelBasedPolicy model(params, config);

  for (int k = 0; k < 5; ++k) {
    const auto report =
        make_report(3600.0 * k, 3600.0, {0.05 + 0.01 * k, 0.2});
    // Bitwise: persistence feeds the estimator the measured rate itself.
    EXPECT_EQ(forecast.estimate(report).cloud_demand,
              model.estimate(report).cloud_demand)
        << "k=" << k;
  }
}

TEST(ForecastPolicy, HoltKindAnticipatesARisingRamp) {
  core::DemandEstimatorConfig config;
  config.occupancy_floor = false;
  predict::ForecastPolicy holt(small_params(), config, ForecasterKind::kHolt);
  core::ModelBasedPolicy last(small_params(), config);
  const auto total = [](const core::DemandSet& set) {
    double sum = 0.0;
    for (double d : set.cloud_demand[0]) sum += d;
    return sum;
  };
  double holt_total = 0.0, last_total = 0.0;
  for (int k = 0; k < 10; ++k) {
    const auto report = make_report(3600.0 * k, 3600.0, {0.05 + 0.02 * k});
    holt_total = total(holt.estimate(report));
    last_total = total(last.estimate(report));
  }
  // After a steady ramp the Holt forecast leads the last measurement, so
  // it provisions more than the paper's policy fed that measurement.
  EXPECT_GT(holt_total, last_total);
}

TEST(ForecastPolicy, NameIncludesKind) {
  predict::ForecastPolicy policy(small_params(), {},
                                 ForecasterKind::kHoltWinters);
  EXPECT_EQ(policy.name(), "forecast:holt-winters");
}

TEST(ForecastPolicy, ChannelCountMustStayStable) {
  predict::ForecastPolicy policy(small_params(), {},
                                 ForecasterKind::kPersistence);
  (void)policy.estimate(make_report(0.0, 3600.0, {0.1, 0.2}));
  EXPECT_THROW((void)policy.estimate(make_report(3600.0, 3600.0, {0.1})),
               util::PreconditionError);
}

}  // namespace
}  // namespace cloudmedia
