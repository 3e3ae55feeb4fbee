// Ablation: heterogeneous peer upload classes — the paper's Sec. IV-C
// extension ("the analysis can be readily extended to cases with
// heterogeneous bandwidths"), quantified.
//
// Questions answered analytically (no simulation):
//   1. How much does discretizing the paper's Pareto uplink into G classes
//      change predicted peer supply vs the homogeneous mean-field (G = 1)?
//   2. Does *inequality* (same mean, more spread) change how much the cloud
//      must provision — and if not, what does it change?
// Plus end to end on the sweep engine (part 3): the ablation_hetero golden
// preset's uplink_shape axis varies the Pareto tail at fixed mean through
// full simulations. `tool_sweep --golden=ablation_hetero` replays the
// downsized grid.
//
// Flags: --rate=0.1 --chunks=20 --classes=8 --e2e=true
//        --hours=12 --warmup=2 --seed=42 --threads=<hardware>
//        --out=results/ablation_hetero

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "core/capacity.h"
#include "core/hetero.h"
#include "core/jackson.h"
#include "core/p2p.h"
#include "core/params.h"
#include "expr/flags.h"
#include "profile/profile.h"
#include "sweep/goldens.h"
#include "sweep/sweep_runner.h"
#include "workload/distributions.h"
#include "workload/viewing.h"

using namespace cloudmedia;

namespace {

struct Channel {
  util::Matrix transfer;
  core::ChannelCapacityPlan capacity;
  std::vector<double> population;
};

Channel make_channel(const core::VodParameters& params, double arrival_rate) {
  const workload::ViewingBehavior behavior;
  Channel ch;
  ch.transfer = behavior.transfer_matrix(params.chunks_per_video);
  const std::vector<double> lambda = core::solve_traffic_equations(
      ch.transfer, behavior.entry_distribution(params.chunks_per_video),
      arrival_rate);
  ch.capacity =
      core::CapacityPlanner(params, core::CapacityModel::kChannelPooled)
          .plan(lambda);
  ch.population.resize(lambda.size());
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    ch.population[i] = lambda[i] * params.chunk_duration;
  }
  return ch;
}

double total(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"rate", "classes", "chunks", "e2e", "hours", "warmup",
                       "seed", "threads", "out"});
  const double rate = flags.get("rate", 0.1);
  const int max_classes = flags.get("classes", 8);

  core::VodParameters params;
  params.chunks_per_video = flags.get("chunks", 20);
  const Channel ch = make_channel(params, rate);
  const double requirement = ch.capacity.total_bandwidth / 1e6 * 8.0;

  // The paper's Pareto uplink, rescaled to mean = streaming rate (the
  // Fig.-11 midpoint; see DESIGN.md).
  const workload::BoundedPareto pareto =
      workload::BoundedPareto(22'500.0, 1'250'000.0, 3.0)
          .scaled_to_mean(params.streaming_rate);

  std::printf("Ablation: heterogeneous peer classes (channel rate %.3f/s, "
              "requirement %.1f Mbps, Pareto uplink mean = r)\n\n",
              rate, requirement);

  // --- part 1: class-count convergence ------------------------------------
  std::printf("Part 1: Pareto uplink discretized into G quantile classes\n");
  std::printf("%8s %14s %14s %12s\n", "G", "peer (Mbps)", "cloud (Mbps)",
              "vs G=1");
  double mean_field_supply = 0.0;
  for (int g = 1; g <= max_classes; g *= 2) {
    const auto classes = core::classes_from_quantiles(
        [&](double u) { return pareto.quantile(u); }, g, 256);
    const auto out = core::solve_hetero_p2p_supply(
        ch.transfer, ch.capacity, ch.population, classes,
        params.streaming_rate);
    const double supply = total(out.peer_supply) / 1e6 * 8.0;
    const double residual = total(out.cloud_residual) / 1e6 * 8.0;
    if (g == 1) mean_field_supply = supply;
    std::printf("%8d %14.1f %14.1f %+11.1f%%\n", g, supply, residual,
                mean_field_supply > 0.0
                    ? 100.0 * (supply / mean_field_supply - 1.0)
                    : 0.0);
  }
  std::printf("(G = 1 is the paper's homogeneous mean-field; growing G "
              "converges to the true Pareto mix)\n\n");

  // --- part 2: inequality at constant mean ---------------------------------
  std::printf("Part 2: two classes, mean fixed at r, spread varied\n");
  std::printf("%26s %14s %14s %10s\n", "mix (share@upload)", "peer (Mbps)",
              "cloud (Mbps)", "fast-share");
  const double r = params.streaming_rate;
  struct Mix {
    double slow_share, slow_upload;
  };
  for (const Mix mix : {Mix{0.0, r}, Mix{0.5, 0.6 * r}, Mix{0.7, 0.5 * r},
                        Mix{0.9, 0.4 * r}, Mix{0.95, 0.2 * r}}) {
    std::vector<core::PeerClass> classes;
    double fast_upload = r;
    if (mix.slow_share <= 0.0) {
      classes = {{"all", r, 1.0}};
    } else {
      fast_upload =
          (r - mix.slow_share * mix.slow_upload) / (1.0 - mix.slow_share);
      classes = {{"slow", mix.slow_upload, mix.slow_share},
                 {"fast", fast_upload, 1.0 - mix.slow_share}};
    }
    const auto out = core::solve_hetero_p2p_supply(
        ch.transfer, ch.capacity, ch.population, classes,
        params.streaming_rate);
    double fast_share = 0.0;
    if (classes.size() == 2 && total(out.peer_supply) > 0.0) {
      double fast_total = 0.0;
      for (std::size_t i = 0; i < out.peer_supply.size(); ++i) {
        fast_total += out.class_supply(1, i);
      }
      fast_share = fast_total / total(out.peer_supply);
    }
    std::printf("  %4.0f%%@%.1fr + %4.0f%%@%.1fr %14.1f %14.1f %9.2f\n",
                100.0 * mix.slow_share, mix.slow_upload / r,
                100.0 * (1.0 - mix.slow_share), fast_upload / r,
                total(out.peer_supply) / 1e6 * 8.0,
                total(out.cloud_residual) / 1e6 * 8.0, fast_share);
  }

  std::printf(
      "\nreading: aggregate peer supply is INVARIANT to spread at fixed "
      "mean — under the equal-utilization allocation all classes drain at "
      "the same fractional rate, so only the population-weighted mean "
      "enters the totals. The paper's homogeneous Eqn. (5) is therefore "
      "exact on cloud residuals even for Pareto uplinks (part 1 confirms "
      "numerically). What heterogeneity changes is the *composition*: the "
      "fast-share column shows a shrinking minority of peers carrying a "
      "growing share of the upload — the accounting a provider needs for "
      "per-class incentives or quotas, invisible to the mean-field.\n");

  if (!flags.get("e2e", true)) return 0;

  // --- part 3: end to end on the sweep engine ------------------------------
  profile::Profile prof = sweep::golden_preset("ablation_hetero").profile;
  prof.warmup_hours = 2.0;
  prof.measure_hours = 12.0;
  sweep::SweepSpec spec = sweep::SweepSpec::from_profile(prof);
  spec.apply_flags(flags);

  std::printf("\nPart 3: full simulations, Pareto tail varied at fixed mean "
              "(P2P, %.0f h per point, seed %llu)\n",
              spec.measure_hours,
              static_cast<unsigned long long>(spec.base_seed));
  std::printf("%14s %12s %12s %12s %9s\n", "Pareto shape", "reserved",
              "cloud used", "peer used", "quality");

  const sweep::SweepResult result = sweep::SweepRunner::run(spec);
  for (const sweep::RunSummary& run : result.runs) {
    std::printf("%14s %12.1f %12.1f %12.1f %9.3f\n",
                run.point.coords.back().second.c_str(),
                run.mean_reserved_mbps, run.mean_used_cloud_mbps,
                run.mean_used_peer_mbps, run.mean_quality);
  }
  std::printf("(each shape draws a different peer population — rows are "
              "independently seeded — but cloud bandwidth should stay in "
              "the same band: the mean, not the spread, is what the cloud "
              "sees)\n");

  const std::string out =
      flags.get("out", std::string("results/ablation_hetero"));
  result.write(out);
  std::printf("\n[csv]  %s.csv\n[json] %s.json\n", out.c_str(), out.c_str());
  return 0;
}
