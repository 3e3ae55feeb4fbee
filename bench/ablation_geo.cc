// Ablation: geo-distributed federation — the paper's Sec. VII ongoing work
// ("expanding to cloud systems spanning different geographic locations"),
// quantified: three regional CloudMedia stacks with staggered diurnal
// crowds vs one consolidated deployment of the same global audience.
//
// Runs on the sweep engine: the ablation_geo golden preset's
// region={global,asia,europe,americas} axis. The region applier
// (sweep/param_grid.cc) reuses FederationRunner::regional_config, so each
// row is one region's full stack — audience share, shifted clock, regional
// prices, proportional budget slice — and "global" is the consolidated
// baseline. region is workload-shaping: every region draws its own viewer
// population, independently seeded.
// `tool_sweep --golden=ablation_geo` replays the downsized grid.
//
// Flags: --hours=24 --warmup=4 --seed=42 --threads=<hardware>
//        --out=results/ablation_geo

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "expr/flags.h"
#include "expr/runner.h"
#include "geo/federation.h"
#include "profile/profile.h"
#include "sweep/goldens.h"
#include "sweep/sweep_runner.h"
#include "util/check.h"
#include "util/stats.h"

using namespace cloudmedia;

namespace {

/// Peak of the hourly sum of the regions' VM cost rates.
double federated_peak(const std::vector<const expr::ExperimentResult*>& regions) {
  double peak = 0.0;
  const double t0 = regions.front()->measure_start;
  const double t1 = regions.front()->measure_end;
  for (double t = t0; t + 3600.0 <= t1 + 1e-9; t += 3600.0) {
    double sum = 0.0;
    for (const expr::ExperimentResult* r : regions) {
      sum += r->metrics.vm_cost_rate.mean_over(t, t + 3600.0);
    }
    peak = std::max(peak, sum);
  }
  return peak;
}

}  // namespace

int main(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"hours", "warmup", "seed", "threads", "out"});

  profile::Profile prof = sweep::golden_preset("ablation_geo").profile;
  prof.warmup_hours = 4.0;
  prof.measure_hours = 24.0;
  sweep::SweepSpec spec = sweep::SweepSpec::from_profile(prof);
  spec.keep_results = true;  // the peak accounting needs hourly cost series
  spec.apply_flags(flags);

  const geo::FederationConfig federation =
      geo::FederationConfig::make_default(core::StreamingMode::kP2p);

  std::printf("Ablation: geo federation (%zu regions, P2P, %.0f h measured, "
              "seed %llu)\n\n",
              federation.regions.size(), spec.measure_hours,
              static_cast<unsigned long long>(spec.base_seed));

  const sweep::SweepResult result = sweep::SweepRunner::run(spec);
  // Pair rows with their RegionSpec by the region coordinate, not by
  // position — the preset's axis order and the federation's region list
  // must not have to stay in lockstep.
  auto spec_of_region = [&](const std::string& name) -> const geo::RegionSpec& {
    for (const geo::RegionSpec& region : federation.regions) {
      if (region.name == name) return region;
    }
    throw util::PreconditionError("preset region '" + name +
                                  "' missing from the default federation");
  };
  const expr::ExperimentResult* mono = nullptr;
  std::vector<const geo::RegionSpec*> region_specs;
  std::vector<const expr::ExperimentResult*> regions;
  for (std::size_t k = 0; k < result.runs.size(); ++k) {
    const std::string& name = result.runs[k].point.coords.back().second;
    if (name == "global") {
      mono = &result.results[k];
    } else {
      region_specs.push_back(&spec_of_region(name));
      regions.push_back(&result.results[k]);
    }
  }
  CM_EXPECTS(mono != nullptr && !regions.empty());

  std::printf("%-10s %8s %7s %12s %12s %9s\n", "region", "share", "tz",
              "mean $/h", "peak $/h", "quality");
  double federated_mean = 0.0;
  double sum_of_regional_peaks = 0.0;
  double weighted_quality = 0.0;
  double min_quality = 1.0;
  for (std::size_t k = 0; k < regions.size(); ++k) {
    const geo::RegionSpec& region_spec = *region_specs[k];
    const expr::ExperimentResult& r = *regions[k];
    const util::TimeSeries hourly =
        r.metrics.vm_cost_rate.resample(r.measure_start, 3600.0);
    std::printf("%-10s %7.0f%% %+6.0fh %12.2f %12.2f %9.3f\n",
                region_spec.name.c_str(), 100.0 * region_spec.audience_share,
                region_spec.utc_offset_hours, r.mean_vm_cost_rate(),
                hourly.max_value(), r.mean_quality());
    federated_mean += r.mean_vm_cost_rate();
    sum_of_regional_peaks += hourly.max_value();
    weighted_quality += region_spec.audience_share * r.mean_quality();
    min_quality = std::min(min_quality, r.mean_quality());
  }

  const double global_peak = federated_peak(regions);
  const util::TimeSeries mono_hourly =
      mono->metrics.vm_cost_rate.resample(mono->measure_start, 3600.0);

  std::printf("\n%-28s %12s %12s %14s\n", "", "mean $/h", "peak $/h",
              "peak-to-mean");
  std::printf("%-28s %12.2f %12.2f %14.2f\n", "federated (sum of regions)",
              federated_mean, global_peak, global_peak / federated_mean);
  std::printf("%-28s %12.2f %12.2f %14.2f\n", "consolidated (one clock)",
              mono->mean_vm_cost_rate(), mono_hourly.max_value(),
              mono_hourly.max_value() / mono->mean_vm_cost_rate());

  std::printf("\nsum of regional peaks %.2f $/h vs federated global peak "
              "%.2f $/h: multiplexing gain %.2fx\n",
              sum_of_regional_peaks, global_peak,
              sum_of_regional_peaks / global_peak);
  std::printf("worst regional quality %.3f; audience-weighted %.3f\n",
              min_quality, weighted_quality);

  const std::string out =
      flags.get("out", std::string("results/ablation_geo"));
  result.write(out);
  std::printf("\n[csv]  %s.csv\n[json] %s.json\n", out.c_str(), out.c_str());

  std::printf(
      "\nreading: regional crowds peak at different reference hours, so the "
      "federated provider's aggregate bill is flatter (lower peak-to-mean, "
      "multiplexing gain > 1) than a consolidated deployment whose whole "
      "audience surges at once — the economics behind the paper's geo "
      "expansion plan. The flip side is visible in the mean column: "
      "splitting one audience into three smaller swarms costs more in "
      "total (smaller channels lose Erlang multiplexing and peer supply "
      "density, and regional prices carry premiums) — geography buys peak "
      "flatness and user proximity, not a lower total bill.\n");
  return 0;
}
