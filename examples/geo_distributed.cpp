// Geo-distributed CloudMedia — the paper's ongoing work ("we are expanding
// to cloud systems spanning different geographic locations", Sec. VII).
//
// Three regional deployments (Asia / Europe / Americas) each run the full
// CloudMedia stack against the same global channel catalogue but with the
// diurnal pattern shifted to local time. Each region provisions its own
// cloud; the dashboard shows what geography buys: regional bills peak at
// different hours, so the provider's *aggregate* spend is far smoother
// than any single region's — the multiplexing argument for going global.
//
// The regions are the three cells of a sweep's `region` axis, so they run
// in parallel. This is the example-sized tour of `src/geo`;
// `bench_paper_figures --figure=ablation_geo` runs the quantified
// federated-vs-consolidated comparison.
//
// Run: ./build/examples/example_geo_distributed [--hours=24] [--seed=42]

#include <cstdio>

#include "expr/flags.h"
#include "geo/federation.h"
#include "sweep/sweep_runner.h"

using namespace cloudmedia;

int main(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"hours", "seed"});
  const double hours = flags.get("hours", 24.0);
  const auto seed = flags.get_u64("seed", 42);

  sweep::SweepSpec spec;
  spec.overrides = {{"mode", "p2p"}};
  spec.grid.add_axis("region", {"asia", "europe", "americas"});
  spec.base_seed = seed;
  spec.threads = 0;  // one region per core
  spec.warmup_hours = 4.0;
  spec.measure_hours = hours;
  spec.keep_results = true;

  std::printf("Geo-distributed CloudMedia: %zu regions x full P2P stack, "
              "%.0f h (seed %llu)\n\n",
              spec.grid.num_points(), hours,
              static_cast<unsigned long long>(seed));

  const sweep::SweepResult cells = sweep::SweepRunner::run(spec);
  geo::FederationResult fed;
  for (std::size_t k = 0; k < cells.runs.size(); ++k) {
    const std::string& name = cells.runs[k].point.coords.back().second;
    fed.regions.push_back({*geo::find_region(name), cells.results[k]});
  }

  std::printf("%6s", "hour");
  for (const geo::RegionResult& region : fed.regions) {
    std::printf(" %12s", region.spec.name.c_str());
  }
  std::printf(" %12s\n", "global $/h");

  const double t0 = fed.regions.front().result.measure_start;
  const double t1 = fed.regions.front().result.measure_end;
  for (double t = t0; t + 3600.0 <= t1 + 1e-9; t += 3600.0) {
    std::printf("%6.0f", (t - t0) / 3600.0);
    double global = 0.0;
    for (const geo::RegionResult& region : fed.regions) {
      const double cost =
          region.result.metrics.vm_cost_rate.mean_over(t, t + 3600.0);
      std::printf(" %12.2f", cost);
      global += cost;
    }
    std::printf(" %12.2f\n", global);
  }

  std::printf("\nglobal mean bill $%.2f/h; global peak $%.2f/h "
              "(peak-to-mean %.2f); worst regional quality %.3f\n",
              fed.global_mean_cost(), fed.global_peak_cost(),
              fed.global_peak_cost() / fed.global_mean_cost(),
              fed.min_quality());
  std::printf("sum of regional peaks $%.2f/h vs global peak $%.2f/h: "
              "multiplexing gain %.2fx\n",
              fed.sum_of_regional_peaks(), fed.global_peak_cost(),
              fed.multiplexing_gain());
  std::printf(
      "Staggered time zones flatten the aggregate: each region's own peak "
      "lands at a different hour, so pooled capacity rides through all "
      "three — the economics behind the paper's geo expansion plan.\n");
  return 0;
}
