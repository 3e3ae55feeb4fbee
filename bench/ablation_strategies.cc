// Ablation: provisioning strategies. The paper's queueing-model-driven
// controller vs the baselines a provider could deploy instead:
//   - reactive    : margin × last hour's observed load (no model)
//   - static      : permanent peak provisioning (no elasticity)
//   - clairvoyant : the paper's model fed the *true* next-hour arrival rate
//                   (isolates the cost of predicting from last-hour stats)
//   - model-nofloor: DESIGN.md's lingering-viewer guard off.
//
// Runs on the sweep engine: one grid axis over the strategy knob, fanned
// across threads, all rows facing the byte-identical workload (strategy is
// a system-side axis, so it does not perturb the per-run seed).
//
// Flags: --hours=48 --warmup=4 --seed=42 --threads=<hardware>
//        --scenario=baseline_diurnal --out=results/ablation_strategies
// --scenario accepts composite expressions too ("flash_crowd+churn_heavy"):
// the strategy comparison under any workload the catalog can compose.

#include <cstdio>
#include <string>

#include "expr/flags.h"
#include "profile/profile.h"
#include "sweep/param_grid.h"
#include "sweep/sweep_runner.h"

using namespace cloudmedia;

int main(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"scenario", "hours", "warmup", "seed", "threads",
                       "out"});

  profile::Profile prof;
  prof.scenario = flags.get("scenario", std::string("baseline_diurnal"));
  prof.grid.add_axis("strategy", {"model", "model-nofloor", "reactive",
                                  "static", "seasonal", "clairvoyant"});
  prof.warmup_hours = 4.0;
  prof.measure_hours = 48.0;
  sweep::SweepSpec spec = sweep::SweepSpec::from_profile(prof);
  spec.apply_flags(flags);

  std::printf("Ablation: provisioning strategies (client-server, %s, %.0f h, "
              "seed %llu, %u threads)\n",
              spec.scenario.c_str(), spec.measure_hours,
              static_cast<unsigned long long>(spec.base_seed),
              spec.threads ? spec.threads : sweep::default_threads());

  const sweep::SweepResult result = sweep::SweepRunner::run(spec);

  std::printf("\n%-28s %10s %10s %9s %9s %9s %10s\n", "strategy", "reserved",
              "used", "over-%", "quality", "$/h", "covered");
  for (const sweep::RunSummary& run : result.runs) {
    const double over =
        run.mean_used_cloud_mbps > 0.0
            ? 100.0 * (run.mean_reserved_mbps / run.mean_used_cloud_mbps - 1.0)
            : 0.0;
    std::printf("%-28s %10.1f %10.1f %8.1f%% %9.3f %9.2f %10.3f\n",
                run.point.coords.front().second.c_str(),
                run.mean_reserved_mbps, run.mean_used_cloud_mbps, over,
                run.mean_quality, run.cost_per_hour, run.covered_fraction);
  }

  const std::string out =
      flags.get("out", std::string("results/ablation_strategies"));
  result.write(out);
  std::printf("\n[csv]  %s.csv\n[json] %s.json\n", out.c_str(), out.c_str());

  std::printf(
      "\nreading: the paper's controller should sit near the clairvoyant "
      "oracle (its 1-hour prediction is cheap but accurate), beat reactive "
      "on quality during ramps, and beat static-peak on cost.\n");
  return 0;
}
