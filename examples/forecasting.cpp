// Forecasting the demand curve — the paper's future work in practice.
//
// The paper's controller predicts next hour's arrivals with this hour's
// measurement (Sec. V-B) and defers "more accurate prediction method[s]
// based on historical data" to future work. This example builds that
// future work from the library's forecaster family: it tracks one channel
// through several days of the paper's diurnal pattern, prints how each
// forecaster chases (or anticipates) the two daily flash crowds, then
// shows the money view — what each predictor would have made the provider
// reserve, versus what was needed.
//
// Run: ./build/examples/example_forecasting [--days=5] [--channel=0]

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/capacity.h"
#include "core/jackson.h"
#include "expr/config.h"
#include "expr/flags.h"
#include "predict/accuracy.h"
#include "predict/forecaster.h"
#include "workload/scenario.h"

using namespace cloudmedia;

int main(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"days", "channel", "seed"});
  const int days = flags.get("days", 5);
  const int channel = flags.get("channel", 0);
  const auto seed = flags.get_u64("seed", 42);

  const expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  const workload::Workload workload(cfg.workload, seed);

  // True hourly mean arrival rate of the chosen channel.
  const auto true_rate = [&](int hour) {
    return workload.mean_rate(channel, 3600.0 * hour, 3600.0 * (hour + 1));
  };

  struct Entry {
    predict::ForecasterKind kind;
    std::string label;
    std::unique_ptr<predict::Forecaster> forecaster;
    predict::ForecastScore score;
  };
  std::vector<Entry> entries;
  for (const auto kind : {predict::ForecasterKind::kPersistence,
                          predict::ForecasterKind::kHolt,
                          predict::ForecasterKind::kSeasonalEwma,
                          predict::ForecasterKind::kHoltWinters}) {
    entries.push_back(
        {kind, predict::to_string(kind), predict::make_forecaster(kind), {}});
  }

  std::printf("Forecasting channel %d of the paper workload over %d days "
              "(hourly cadence, daily season)\n\n",
              channel, days);

  // Show the final day hour by hour; score every day after the first.
  std::printf("%5s %9s", "hour", "actual");
  for (const Entry& e : entries) std::printf(" %14s", e.label.c_str());
  std::printf("\n");

  for (int h = 0; h < 24 * days; ++h) {
    const double actual = true_rate(h);
    const bool show = h >= 24 * (days - 1);
    if (show) std::printf("%5d %9.4f", h % 24, actual);
    for (Entry& e : entries) {
      const double predicted = e.forecaster->forecast();
      if (h >= 24) e.score.add(predicted, actual);
      if (show) std::printf(" %14.4f", predicted);
      e.forecaster->observe(actual);
    }
    if (show) std::printf("\n");
  }

  std::printf("\nAccuracy over days 2..%d (users/s):\n", days);
  std::printf("%-14s %10s %10s %10s %9s\n", "forecaster", "MAE", "RMSE",
              "bias", "under-%");
  for (const Entry& e : entries) {
    std::printf("%-14s %10.4f %10.4f %+10.4f %8.1f%%\n", e.label.c_str(),
                e.score.mae(), e.score.rmse(), e.score.bias(),
                100.0 * e.score.under_fraction());
  }

  // The money view: feed each predictor's rates through the Sec.-IV sizing
  // and compare reserved bandwidth against the true requirement.
  const workload::ViewingBehavior& behavior = cfg.workload.behavior;
  const util::Matrix transfer = behavior.transfer_matrix(cfg.vod.chunks_per_video);
  const std::vector<double> entry_dist =
      behavior.entry_distribution(cfg.vod.chunks_per_video);
  const core::CapacityPlanner planner(cfg.vod,
                                      core::CapacityModel::kChannelPooled);
  const auto required_mbps = [&](double rate) {
    if (rate <= 0.0) return 0.0;
    const auto lambda = core::solve_traffic_equations(transfer, entry_dist, rate);
    return planner.plan(lambda).total_bandwidth / 1e6 * 8.0;
  };

  std::printf("\nProvisioning view (channel requirement from the paper's "
              "Erlang sizing):\n");
  std::printf("%-14s %16s %16s\n", "forecaster", "over-buy (Mbps·h)",
              "short (Mbps·h)");
  for (Entry& e : entries) {
    // A fresh pass, same kinds.
    const auto f = predict::make_forecaster(e.kind);
    double over = 0.0, under = 0.0;
    for (int h = 0; h < 24 * days; ++h) {
      const double actual = true_rate(h);
      if (h >= 24) {
        const double bought = required_mbps(f->forecast());
        const double needed = required_mbps(actual);
        over += std::max(0.0, bought - needed);
        under += std::max(0.0, needed - bought);
      }
      f->observe(actual);
    }
    std::printf("%-14s %16.1f %16.1f\n", e.label.c_str(), over, under);
  }

  std::printf(
      "\nTakeaway: persistence (the paper's predictor) buys yesterday's "
      "curve one hour late — it under-buys into every flash crowd and "
      "over-buys after it. The seasonal forecasters learn the daily shape "
      "and nearly eliminate the shortfall, which is the quality-critical "
      "direction.\n");
  return 0;
}
