// Ablation: arrival-rate predictors — the paper's future work ("more
// accurate prediction method based on historical data collected over more
// intervals", Sec. V-B) implemented in src/predict and measured two ways:
//
//   1. analytically: one-step forecast accuracy on the true diurnal
//      per-channel rates of the paper workload (no simulation noise);
//   2. end-to-end on the sweep engine: the ablation_prediction golden
//      preset's forecaster axis drives the controller through full
//      simulations, every forecaster facing the byte-identical workload
//      (the forecaster is system-side). `tool_sweep
//      --golden=ablation_prediction` replays the downsized grid.
//
// Flags: --days=4 --hours=30 --warmup=4 --seed=42 --e2e=true
//        --threads=<hardware> --out=results/ablation_prediction

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "expr/config.h"
#include "expr/flags.h"
#include "expr/runner.h"
#include "predict/accuracy.h"
#include "predict/forecaster.h"
#include "profile/profile.h"
#include "sweep/goldens.h"
#include "sweep/sweep_runner.h"
#include "workload/scenario.h"

using namespace cloudmedia;

namespace {

predict::ForecasterSpec spec_of(predict::ForecasterKind kind) {
  predict::ForecasterSpec spec;
  spec.kind = kind;
  spec.period = 24;  // hourly cadence, daily season
  return spec;
}

/// True mean rate of `channel` over one hour (1-minute resolution).
double true_hourly_rate(const workload::Workload& workload, int channel,
                        double t0) {
  double acc = 0.0;
  for (int m = 0; m < 60; ++m) {
    acc += workload.channel_rate(channel, t0 + 60.0 * m);
  }
  return acc / 60.0;
}

}  // namespace

int main(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"days", "e2e", "hours", "warmup", "seed", "threads",
                       "out"});
  const int days = flags.get("days", 4);
  const auto seed = static_cast<std::uint64_t>(flags.get_ll("seed", 42));

  // --- part 1: forecast accuracy on the true rates ------------------------
  const expr::ExperimentConfig base =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  const workload::Workload workload(base.workload, seed);

  std::printf("Part 1: one-step accuracy on true per-channel hourly rates "
              "(%d day(s), %d channels)\n",
              days, workload.num_channels());
  std::printf("%-16s %10s %10s %10s %10s %9s\n", "forecaster",
              "MAE(/s)", "RMSE(/s)", "MAPE", "bias(/s)", "under-%");

  for (const predict::ForecasterKind kind : predict::all_forecaster_kinds()) {
    predict::ForecastScore score;
    for (int c = 0; c < workload.num_channels(); ++c) {
      const auto f = predict::make_forecaster(spec_of(kind));
      for (int h = 0; h < 24 * days; ++h) {
        const double actual = true_hourly_rate(workload, c, 3600.0 * h);
        if (h >= 24) score.add(f->forecast(), actual);  // skip day-1 warmup
        f->observe(actual);
      }
    }
    std::printf("%-16s %10.4f %10.4f %9.1f%% %+10.4f %8.1f%%\n",
                predict::to_string(kind).c_str(), score.mae(), score.rmse(),
                100.0 * score.mape(), score.bias(),
                100.0 * score.under_fraction());
  }
  std::printf("\nreading: on a repeating diurnal signal the seasonal "
              "forecasters should cut MAE well below persistence (the "
              "paper's predictor), which trails every ramp by one hour.\n");

  if (!flags.get("e2e", true)) return 0;

  // --- part 2: end to end on the sweep engine ------------------------------
  profile::Profile prof = sweep::golden_preset("ablation_prediction").profile;
  prof.warmup_hours = 4.0;
  prof.measure_hours = 30.0;
  sweep::SweepSpec spec = sweep::SweepSpec::from_profile(prof);
  spec.apply_flags(flags);

  std::printf("\nPart 2: end-to-end provisioning (client-server, %.0f h "
              "measured, seed %llu, shared workload)\n",
              spec.measure_hours,
              static_cast<unsigned long long>(spec.base_seed));
  std::printf("%-16s %10s %10s %9s %9s %10s\n", "forecaster", "reserved",
              "used", "quality", "$/h", "covered");

  const sweep::SweepResult result = sweep::SweepRunner::run(spec);
  for (const sweep::RunSummary& run : result.runs) {
    std::printf("%-16s %10.1f %10.1f %9.3f %9.2f %10.3f\n",
                run.point.coords.back().second.c_str(),
                run.mean_reserved_mbps, run.mean_used_cloud_mbps,
                run.mean_quality, run.cost_per_hour, run.covered_fraction);
  }

  const std::string out =
      flags.get("out", std::string("results/ablation_prediction"));
  result.write(out);
  std::printf("\n[csv]  %s.csv\n[json] %s.json\n", out.c_str(), out.c_str());

  std::printf(
      "\nreading: all forecasters keep quality high (the Erlang sizing "
      "carries headroom); the differences show up in reserved bandwidth "
      "and cost — better predictors under-provision less during the "
      "flash-crowd ramps and over-provision less after them.\n");
  return 0;
}
