#include "expr/ablations.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/capacity.h"
#include "core/jackson.h"
#include "core/p2p.h"
#include "core/params.h"
#include "expr/config.h"
#include "expr/paper.h"
#include "expr/runner.h"
#include "geo/federation.h"
#include "predict/accuracy.h"
#include "predict/forecaster.h"
#include "util/check.h"
#include "util/units.h"
#include "workload/distributions.h"
#include "workload/scenario.h"
#include "workload/viewing.h"

namespace cloudmedia::expr {

namespace {

unsigned threads_of(const sweep::SweepSpec& spec) {
  return spec.threads ? spec.threads : sweep::default_threads();
}

/// The value of the cell's last grid coordinate (the swept knob).
const std::string& swept_value(const sweep::RunSummary& run) {
  return run.point.coords.back().second;
}

double total(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

/// One analytic channel: its Jackson routing, pooled capacity plan, and
/// per-chunk populations lambda_i * T0 at `arrival_rate`.
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

}  // namespace

// Provisioning strategies: the paper's queueing-model-driven controller vs
// the baselines a provider could deploy instead —
//   reactive     : margin × last hour's observed load (no model);
//   static       : permanent peak provisioning (no elasticity);
//   clairvoyant  : the paper's model fed the *true* next-hour arrival rate
//                  (isolates the cost of predicting from last-hour stats);
//   model-nofloor: the occupancy floor (lingering-viewer guard) off.
// Strategy is a system-side axis, so every row faces the byte-identical
// workload. Other workloads: `tool_sweep --scenario=X --grid
// strategy=model,reactive,...`.
void report_ablation_strategies(const FigureRun& run) {
  std::printf("Ablation: provisioning strategies (client-server, %s, %.0f h, "
              "seed %llu, %u threads)\n",
              run.spec.scenario.c_str(), run.spec.measure_hours,
              run.seed(), threads_of(run.spec));

  std::printf("\n%-28s %10s %10s %9s %9s %9s %10s\n", "strategy", "reserved",
              "used", "over-%", "quality", "$/h", "covered");
  for (const sweep::RunSummary& row : run.result.runs) {
    const double over =
        row.mean_used_cloud_mbps > 0.0
            ? 100.0 * (row.mean_reserved_mbps / row.mean_used_cloud_mbps - 1.0)
            : 0.0;
    std::printf("%-28s %10.1f %10.1f %8.1f%% %9.3f %9.2f %10.3f\n",
                swept_value(row).c_str(), row.mean_reserved_mbps,
                row.mean_used_cloud_mbps, over, row.mean_quality,
                row.cost_per_hour, row.covered_fraction);
  }

  std::printf(
      "\nreading: the paper's controller should sit near the clairvoyant "
      "oracle (its 1-hour prediction is cheap but accurate), beat reactive "
      "on quality during ramps, and beat static-peak on cost.\n");
}

// Per-chunk literal vs channel-pooled Erlang sizing. Sec. IV-B sizes every
// chunk queue separately with an integer m_i — at least one whole
// VM-bandwidth R per active chunk; Sec. V-A2 then lets one VM serve several
// consecutive chunks, i.e. the deployed system pools a channel's VMs. Both
// cells of an arrival column share a seed (capacity is system-side), so the
// reserved-bandwidth gap is pure sizing policy. At the paper's own scale
// the literal sizing needs 2-3x the pooled bandwidth and overflows Table
// II's 150 VMs outright.
void report_ablation_pooling(const FigureRun& run) {
  std::printf("Ablation: per-chunk literal vs channel-pooled VM sizing "
              "(%.0f h, seed %llu, %u threads)\n",
              run.spec.measure_hours, run.seed(), threads_of(run.spec));

  // Rows come out in grid order: all literal cells first, then pooled.
  const sweep::SweepResult& result = run.result;
  const std::size_t rates = result.axes[1].values.size();
  std::printf("\n%12s %18s %18s %14s %10s\n", "arrival", "literal (Mbps)",
              "pooled (Mbps)", "literal/pooled", "quality Δ");
  for (std::size_t r = 0; r < rates; ++r) {
    const sweep::RunSummary& literal = result.runs[r];
    const sweep::RunSummary& pooled = result.runs[rates + r];
    const double ratio = pooled.mean_reserved_mbps > 0.0
                             ? literal.mean_reserved_mbps / pooled.mean_reserved_mbps
                             : 0.0;
    std::printf("%10s/s %18.1f %18.1f %14.2f %+10.3f\n",
                result.axes[1].values[r].c_str(), literal.mean_reserved_mbps,
                pooled.mean_reserved_mbps, ratio,
                literal.mean_quality - pooled.mean_quality);
  }

  const sweep::RunSummary& paper_literal = result.runs[rates - 1];
  const sweep::RunSummary& paper_pooled = result.runs[2 * rates - 1];
  const core::VodParameters params;
  const double table2_mbps = 150.0 * util::to_mbps(params.vm_bandwidth);
  std::printf("\npaper scale (20 Zipf channels, 1.1 users/s aggregate):\n");
  std::printf("  literal sizing : %7.0f Mbps mean reserved\n",
              paper_literal.mean_reserved_mbps);
  std::printf("  pooled sizing  : %7.0f Mbps mean reserved\n",
              paper_pooled.mean_reserved_mbps);
  std::printf("  Table II total : %7.0f Mbps (150 VMs)\n", table2_mbps);
  // In the deployed system literal sizing cannot exceed what the clusters
  // sell — it pins against the cap instead (and quality pays for it).
  std::printf("  => literal sizing %s Table II's capacity; pooled fits with\n"
              "     headroom. The paper's Fig. 4 reserved curve (~1-2.2 Gbps)\n"
              "     is only reachable with pooling — see README,\n"
              "     \"Modelling choices\".\n",
              paper_literal.mean_reserved_mbps > 0.95 * table2_mbps
                  ? "SATURATES"
                  : "fits within");

  std::printf("\nnote: both models target the same per-queue sojourn bound\n"
              "E[n] <= lambda*T0; pooling wins by statistical multiplexing —\n"
              "one Erlang headroom per channel instead of per chunk.\n");
}

// VM provisioning latency. Sec. VI-C measures ~25 s to boot a VM and argues
// that parallel boots make provisioning latency negligible for VoD. The
// boot delay sweeps from instant to 30 minutes; it is system-side, so
// every row faces the byte-identical workload and the latency penalty is
// the only thing that moves.
void report_ablation_boot_delay(const FigureRun& run) {
  std::printf("Ablation: VM boot latency (client-server, %.0f h per point, "
              "seed %llu; paper measures ~%.0f s)\n",
              run.spec.measure_hours, run.seed(), paper::kVmBootSeconds);
  std::printf("\n%12s %9s %12s %12s %10s\n", "boot delay", "quality",
              "late frac", "reserved", "$/h");

  for (std::size_t k = 0; k < run.result.runs.size(); ++k) {
    const sweep::RunSummary& row = run.result.runs[k];
    const ExperimentResult& r = run.result.results[k];
    std::printf("%10s s %9.3f %12.4f %9.0f Mb %10.2f\n",
                swept_value(row).c_str(), row.mean_quality, r.late_share(),
                row.mean_reserved_mbps, r.mean_vm_cost_rate());
  }

  std::printf("\nreading: against a 1-hour provisioning interval and a\n"
              "5-minute playback deadline, the paper's 25-second boot is\n"
              "indeed negligible — latency only bites once it reaches the\n"
              "scale of the chunk deadline (minutes), validating Sec. VI-C's\n"
              "\"timely service provisioning\" claim.\n");
}

// Chunk size (the paper's footnote 3): "we have experimented with different
// chunk sizes and identified the one presented here [T0 = 5 min] as the
// best". The chunk_minutes applier (sweep/param_grid.cc) sweeps T0 over a
// 100-minute video (J = 100 / T0) while keeping the physical seek (15 min)
// and departure (37 min) processes fixed, so the per-chunk jump/leave
// probabilities follow the competing-risks formula.
void report_ablation_chunk_size(const FigureRun& run) {
  std::printf("Ablation: chunk size T0 (P2P, 100-minute videos, %.0f h per "
              "point, seed %llu)\n",
              run.spec.measure_hours, run.seed());
  std::printf("\n%8s %6s %10s %9s %10s %10s %10s %12s\n", "T0 (min)", "J",
              "chunk MB", "quality", "reserved", "$/h", "VM boots",
              "late frac");

  for (std::size_t k = 0; k < run.result.runs.size(); ++k) {
    const sweep::RunSummary& row = run.result.runs[k];
    const ExperimentResult& r = run.result.results[k];
    const double t0_minutes = std::stod(swept_value(row));
    const int chunks = static_cast<int>(std::lround(100.0 / t0_minutes));
    core::VodParameters vod;
    vod.chunk_duration = t0_minutes * 60.0;
    vod.chunks_per_video = chunks;
    std::printf("%8.1f %6d %10.1f %9.3f %7.0f Mb %10.2f %10ld %12.4f\n",
                t0_minutes, chunks, vod.chunk_bytes() / 1e6, row.mean_quality,
                row.mean_reserved_mbps, r.mean_vm_cost_rate(), r.vm_boots,
                r.late_share());
  }

  std::printf(
      "\nreading: small chunks multiply queues (finer control, more VM\n"
      "switching and per-chunk headroom); large chunks reduce switching but\n"
      "make each retrieval heavier and seeks wasteful — the paper's 5-minute\n"
      "choice sits in the flat middle of the quality/cost trade-off.\n");
}

// Geo-distributed federation — Sec. VII's ongoing work ("expanding to cloud
// systems spanning different geographic locations"), quantified: three
// regional stacks with staggered diurnal crowds vs one consolidated
// deployment of the same global audience. Each regional row is one cell
// of the sweep's `region` axis (geo::apply_region) and "global" is the
// consolidated baseline; the regional rows aggregate as a
// geo::FederationResult over the sweep's own results.
void report_ablation_geo(const FigureRun& run) {
  std::printf("Ablation: geo federation (%zu regions, P2P, %.0f h measured, "
              "seed %llu)\n\n",
              geo::default_regions().size(), run.spec.measure_hours,
              run.seed());

  // Pair rows with their RegionSpec by the region coordinate, not by
  // position — the preset's axis order and the region table need not stay
  // in lockstep.
  const ExperimentResult* mono = nullptr;
  geo::FederationResult federated;
  for (std::size_t k = 0; k < run.result.runs.size(); ++k) {
    const std::string& name = swept_value(run.result.runs[k]);
    if (name == "global") {
      mono = &run.result.results[k];
      continue;
    }
    const geo::RegionSpec* region = geo::find_region(name);
    CM_EXPECTS(region != nullptr);
    federated.regions.push_back({*region, run.result.results[k]});
  }
  CM_EXPECTS(mono != nullptr && !federated.regions.empty());

  std::printf("%-10s %8s %7s %12s %12s %9s\n", "region", "share", "tz",
              "mean $/h", "peak $/h", "quality");
  for (const geo::RegionResult& region : federated.regions) {
    const ExperimentResult& r = region.result;
    const util::TimeSeries hourly =
        r.metrics.vm_cost_rate.resample(r.measure_start, 3600.0);
    std::printf("%-10s %7.0f%% %+6.0fh %12.2f %12.2f %9.3f\n",
                region.spec.name.c_str(), 100.0 * region.spec.audience_share,
                region.spec.utc_offset_hours, r.mean_vm_cost_rate(),
                hourly.max_value(), r.mean_quality());
  }

  const double federated_mean = federated.global_mean_cost();
  const double global_peak = federated.global_peak_cost();
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
              federated.sum_of_regional_peaks(), global_peak,
              federated.multiplexing_gain());
  std::printf("worst regional quality %.3f; audience-weighted %.3f\n",
              federated.min_quality(), federated.weighted_quality());

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
}

// Heterogeneous peer upload classes — Sec. IV-C's extension ("the analysis
// can be readily extended to cases with heterogeneous bandwidths"),
// quantified. Analytically, on one 20-chunk channel at 0.1 users/s: (1) how
// much does discretizing the paper's Pareto uplink into G classes change
// predicted peer supply vs the homogeneous mean-field (G = 1)? (2) does
// inequality at a fixed mean change the cloud residual? Then end to end
// (part 3): the uplink_shape axis varies the Pareto tail at fixed mean.
void report_ablation_hetero(const FigureRun& run) {
  constexpr double kRate = 0.1;
  constexpr int kMaxClasses = 8;
  core::VodParameters params;
  params.chunks_per_video = 20;
  const Channel ch = make_channel(params, kRate);
  const double requirement = ch.capacity.total_bandwidth / 1e6 * 8.0;

  // The paper's Pareto uplink, rescaled to mean = streaming rate (the
  // Fig.-11 midpoint; see README "Modelling choices").
  const workload::BoundedPareto pareto =
      workload::BoundedPareto(22'500.0, 1'250'000.0, 3.0)
          .scaled_to_mean(params.streaming_rate);

  std::printf("Ablation: heterogeneous peer classes (channel rate %.3f/s, "
              "requirement %.1f Mbps, Pareto uplink mean = r)\n\n",
              kRate, requirement);

  // --- part 1: class-count convergence ------------------------------------
  std::printf("Part 1: Pareto uplink discretized into G quantile classes\n");
  std::printf("%8s %14s %14s %12s\n", "G", "peer (Mbps)", "cloud (Mbps)",
              "vs G=1");
  double mean_field_supply = 0.0;
  for (int g = 1; g <= kMaxClasses; g *= 2) {
    const auto classes = core::classes_from_quantiles(
        [&](double u) { return pareto.quantile(u); }, g, 256);
    const auto out = core::solve_p2p_supply(
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
    const auto out = core::solve_p2p_supply(
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

  // --- part 3: end to end on the sweep engine ------------------------------
  std::printf("\nPart 3: full simulations, Pareto tail varied at fixed mean "
              "(P2P, %.0f h per point, seed %llu)\n",
              run.spec.measure_hours, run.seed());
  std::printf("%14s %12s %12s %12s %9s\n", "Pareto shape", "reserved",
              "cloud used", "peer used", "quality");
  for (const sweep::RunSummary& row : run.result.runs) {
    std::printf("%14s %12.1f %12.1f %12.1f %9.3f\n", swept_value(row).c_str(),
                row.mean_reserved_mbps, row.mean_used_cloud_mbps,
                row.mean_used_peer_mbps, row.mean_quality);
  }
  std::printf("(each shape draws a different peer population — rows are "
              "independently seeded — but cloud bandwidth should stay in "
              "the same band: the mean, not the spread, is what the cloud "
              "sees)\n");
}

// The Eqn.-(5) peer-supply cap, literal vs bandwidth-consistent. Printed
// verbatim, Eqn. (5) caps chunk i's peer supply at m_i * r; with the
// paper's own R = 25 r that bounds peer offload at 4% of the provisioned
// requirement m_i * R — contradicting the paper's headline ~11x P2P saving
// (Figs. 4/10). The cloud residual under both readings across peer-uplink
// ratios, then end to end: both p2p_cap cells face the byte-identical
// workload (the cap is system-side), which is why the model adopts the
// bandwidth-consistent cap as the default.
void report_ablation_p2p_cap(const FigureRun& run) {
  const core::VodParameters params;
  const Channel ch = make_channel(params, 0.2);

  std::printf("Ablation: Eqn.-(5) peer-supply cap (analytic, one channel at "
              "0.2 users/s)\n\n");
  std::printf("%8s | %28s | %28s\n", "", "literal cap  (Gamma <= m*r)",
              "bandwidth cap (Gamma <= m*R)");
  std::printf("%8s | %13s %14s | %13s %14s\n", "u/r", "peer (Mbps)",
              "cloud (Mbps)", "peer (Mbps)", "cloud (Mbps)");
  for (double ratio : {0.5, 0.9, 1.0, 1.2, 2.0}) {
    const double uplink = ratio * params.streaming_rate;
    core::P2pOptions lit;
    lit.demand_cap = core::P2pDemandCap::kStreamingRateLiteral;
    const core::P2pSupply literal =
        core::solve_p2p_supply(ch.transfer, ch.capacity, ch.population, uplink,
                               params.streaming_rate, lit);
    const core::P2pSupply bandwidth =
        core::solve_p2p_supply(ch.transfer, ch.capacity, ch.population, uplink,
                               params.streaming_rate);
    std::printf("%8.2f | %13.1f %14.1f | %13.1f %14.1f\n", ratio,
                util::to_mbps(total(literal.peer_supply)),
                util::to_mbps(total(literal.cloud_residual)),
                util::to_mbps(total(bandwidth.peer_supply)),
                util::to_mbps(total(bandwidth.cloud_residual)));
  }
  std::printf("(channel requirement: %.1f Mbps; with R = 25 r the literal "
              "cap can never offload more than %.0f%% of it)\n",
              util::to_mbps(ch.capacity.total_bandwidth),
              100.0 * params.streaming_rate / params.vm_bandwidth);

  std::printf("\nend-to-end (%.0f h P2P simulation, seed %llu, shared "
              "workload):\n",
              run.spec.measure_hours, run.seed());
  // Grid order: p2p_cap={literal,bandwidth}.
  const sweep::RunSummary& literal_run = run.result.runs[0];
  const sweep::RunSummary& bandwidth_run = run.result.runs[1];
  std::printf("%-24s %12s %12s\n", "", "literal", "bandwidth");
  std::printf("%-24s %12.1f %12.1f\n", "reserved (Mbps)",
              literal_run.mean_reserved_mbps, bandwidth_run.mean_reserved_mbps);
  std::printf("%-24s %12.2f %12.2f\n", "cost ($/h)",
              literal_run.cost_per_hour, bandwidth_run.cost_per_hour);
  std::printf("%-24s %12.3f %12.3f\n", "quality",
              literal_run.mean_quality, bandwidth_run.mean_quality);

  std::printf("\nreading: under the literal cap the P2P deployment reserves "
              "almost as much cloud as client-server — the paper's ~11x "
              "saving is only reproducible with the bandwidth-consistent "
              "reading.\n");
}

// Arrival-rate predictors — the paper's future work ("more accurate
// prediction method based on historical data collected over more
// intervals", Sec. V-B) implemented in src/predict and measured two ways:
// (1) one-step forecast accuracy on the true diurnal per-channel rates of
// the paper workload over 4 days (no simulation noise); (2) end to end, the
// forecaster axis driving the controller, every forecaster facing the
// byte-identical workload (the forecaster is system-side).
void report_ablation_prediction(const FigureRun& run) {
  constexpr int kDays = 4;
  const ExperimentConfig base =
      ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  const workload::Workload workload(base.workload, run.spec.base_seed);

  std::printf("Part 1: one-step accuracy on true per-channel hourly rates "
              "(%d day(s), %d channels)\n",
              kDays, workload.num_channels());
  std::printf("%-16s %10s %10s %10s %10s %9s\n", "forecaster",
              "MAE(/s)", "RMSE(/s)", "MAPE", "bias(/s)", "under-%");

  for (const predict::ForecasterKind kind : predict::all_forecaster_kinds()) {
    predict::ForecastScore score;
    for (int c = 0; c < workload.num_channels(); ++c) {
      const auto f = predict::make_forecaster(kind);
      for (int h = 0; h < 24 * kDays; ++h) {
        const double actual =
            workload.mean_rate(c, 3600.0 * h, 3600.0 * (h + 1));
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

  std::printf("\nPart 2: end-to-end provisioning (client-server, %.0f h "
              "measured, seed %llu, shared workload)\n",
              run.spec.measure_hours, run.seed());
  std::printf("%-16s %10s %10s %9s %9s %10s\n", "forecaster", "reserved",
              "used", "quality", "$/h", "covered");
  for (const sweep::RunSummary& row : run.result.runs) {
    std::printf("%-16s %10.1f %10.1f %9.3f %9.2f %10.3f\n",
                swept_value(row).c_str(), row.mean_reserved_mbps,
                row.mean_used_cloud_mbps, row.mean_quality, row.cost_per_hour,
                row.covered_fraction);
  }

  std::printf(
      "\nreading: all forecasters keep quality high (the Erlang sizing "
      "carries headroom); the differences show up in reserved bandwidth "
      "and cost — better predictors under-provision less during the "
      "flash-crowd ramps and over-provision less after them.\n");
}

}  // namespace cloudmedia::expr
