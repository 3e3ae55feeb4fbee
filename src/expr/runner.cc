#include "expr/runner.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/demand.h"
#include "predict/policy.h"
#include "util/check.h"

namespace cloudmedia::expr {

namespace {

double mean_over_window(const util::TimeSeries& series, double t0, double t1) {
  return series.mean_over(t0, t1);
}

std::unique_ptr<core::DemandPolicy> make_policy(
    const ExperimentConfig& config, const workload::Workload& workload) {
  core::DemandEstimatorConfig estimator;
  estimator.mode = config.mode;
  estimator.capacity_model = config.capacity_model;
  estimator.occupancy_floor = config.occupancy_floor;
  estimator.p2p = config.p2p;

  switch (config.strategy) {
    case Strategy::kModelBased:
      return std::make_unique<core::ModelBasedPolicy>(config.vod, estimator);
    case Strategy::kReactive:
      return std::make_unique<core::ReactivePolicy>(config.vod,
                                                    config.reactive_margin);
    case Strategy::kStatic: {
      // Peak provisioning: the paper's model evaluated at the diurnal peak.
      core::DemandEstimator peak_estimator(config.vod, estimator);
      const workload::ViewingBehavior& behavior = config.workload.behavior;
      const int j = config.vod.chunks_per_video;
      core::ChannelObservation obs;
      obs.transfer = behavior.transfer_matrix(j);
      obs.entry = behavior.entry_distribution(j);
      obs.occupancy.assign(static_cast<std::size_t>(j), 0.0);
      obs.mean_peer_uplink = workload.uplink_distribution().mean();
      std::vector<std::vector<double>> demand;
      demand.reserve(static_cast<std::size_t>(workload.num_channels()));
      double total = 0.0;
      for (int c = 0; c < workload.num_channels(); ++c) {
        obs.arrival_rate = workload.channel_max_rate(c);
        demand.push_back(peak_estimator.estimate(obs).cloud_demand);
        for (double d : demand.back()) total += d;
      }
      // Channel peaks do not coincide, so their sum can exceed what the
      // cloud sells. A fixed plan must be purchasable: pro-rate everything
      // to the deliverable capacity, as an operator buying "peak" would.
      double available = 0.0;
      for (const core::VmClusterSpec& cluster : config.vm_clusters) {
        available += static_cast<double>(cluster.max_vms) * config.vod.vm_bandwidth;
      }
      if (total > available && total > 0.0) {
        const double scale = available / total;
        for (auto& channel : demand) {
          for (double& d : channel) d *= scale;
        }
      }
      return std::make_unique<core::StaticPolicy>(std::move(demand));
    }
    case Strategy::kSeasonal:
      return std::make_unique<core::SeasonalPolicy>(config.vod, estimator);
    case Strategy::kForecast:
      return std::make_unique<predict::ForecastPolicy>(config.vod, estimator,
                                                       config.forecaster);
    case Strategy::kClairvoyant:
      return std::make_unique<core::ClairvoyantPolicy>(
          config.vod, estimator,
          [&workload](int channel, double t0, double t1) {
            return workload.mean_rate(channel, t0, t1);
          });
  }
  throw util::PreconditionError("unknown strategy");
}

void require_unchanged(bool unchanged, const std::string& op_name,
                       const char* field) {
  if (unchanged) return;
  throw util::PreconditionError(
      "timeline op '" + op_name + "' changed " + field +
      ", which is wired into the running system at t=0 and cannot change "
      "mid-run (timed scenario ops may reshape the arrival pattern, viewing "
      "behaviour, catalog popularity, peer uplinks, and the VM/storage "
      "budgets)");
}

/// The fields a timed op may NOT touch: everything the simulation bakes in
/// before t=0 — pool/menu sizing, the policy object, the RNG seed, the
/// schedule. Checked in a pre-run dry pass so a bad timeline fails fast
/// with a teaching error instead of silently no-opping mid-run.
void enforce_mid_run_mutable(const ExperimentConfig& before,
                             const ExperimentConfig& after,
                             const std::string& op_name) {
  require_unchanged(after.mode == before.mode, op_name, "mode");
  require_unchanged(after.capacity_model == before.capacity_model, op_name,
                    "capacity_model");
  require_unchanged(after.occupancy_floor == before.occupancy_floor, op_name,
                    "occupancy_floor");
  require_unchanged(after.strategy == before.strategy, op_name, "strategy");
  require_unchanged(after.vm_boot_delay == before.vm_boot_delay, op_name,
                    "vm_boot_delay");
  require_unchanged(after.seed == before.seed, op_name, "seed");
  require_unchanged(after.warmup_hours == before.warmup_hours &&
                        after.measure_hours == before.measure_hours,
                    op_name, "the measurement horizon");
  require_unchanged(after.vm_clusters.size() == before.vm_clusters.size() &&
                        after.nfs_clusters.size() == before.nfs_clusters.size(),
                    op_name, "the cluster menus");
  require_unchanged(after.workload.num_channels == before.workload.num_channels,
                    op_name, "workload.num_channels");
  require_unchanged(
      after.workload.chunks_per_video == before.workload.chunks_per_video,
      op_name, "workload.chunks_per_video");
  require_unchanged(
      after.workload.streaming_rate == before.workload.streaming_rate, op_name,
      "workload.streaming_rate");
  require_unchanged(after.engine == before.engine, op_name, "engine");
}

/// Dry-run the timeline against a scratch config: rejects ops that touch
/// frozen fields, validates every intermediate workload, and returns the
/// arrival-envelope headroom — the max, over timeline states and channels,
/// of channel_max_rate relative to the t=0 config. PoissonArrivals freezes
/// its thinning envelope at construction, so a mid-run rate increase must
/// be pre-paid here. An empty timeline returns exactly 1.0, which
/// multiplies bit-neutrally into the envelope (untimed runs keep their
/// arrival streams byte-identical).
double timeline_envelope_headroom(const std::vector<TimedConfigOp>& timeline,
                                  const ExperimentConfig& baseline) {
  if (timeline.empty()) return 1.0;
  double headroom = 1.0;
  const workload::Workload initial(baseline.workload, /*seed=*/0);
  ExperimentConfig scratch = baseline;
  for (const TimedConfigOp& op : timeline) {
    const ExperimentConfig before_op = scratch;
    op.apply(scratch, baseline);
    enforce_mid_run_mutable(before_op, scratch, op.name);
    scratch.workload.validate();
    const workload::Workload after(scratch.workload, /*seed=*/0);
    for (int c = 0; c < baseline.workload.num_channels; ++c) {
      const double base_rate = initial.channel_max_rate(c);
      if (base_rate > 0.0) {
        headroom = std::max(headroom, after.channel_max_rate(c) / base_rate);
      }
    }
  }
  return headroom;
}

/// The config as the run reads it: validated, with the timeline stably
/// sorted by fire time.
ExperimentConfig sorted_live_config(const ExperimentConfig& config) {
  config.validate();
  ExperimentConfig live = config;
  std::stable_sort(live.timeline.begin(), live.timeline.end(),
                   [](const TimedConfigOp& a, const TimedConfigOp& b) {
                     return a.fire_time < b.fire_time;
                   });
  return live;
}

ExperimentConfig without_timeline(ExperimentConfig config) {
  config.timeline.clear();
  return config;
}

cloud::CloudConfig cloud_config_for(const ExperimentConfig& config) {
  cloud::CloudConfig cloud_config;
  cloud_config.sla = cloud::SlaTerms{config.vm_budget_per_hour,
                                     config.storage_budget_per_hour,
                                     config.vm_clusters, config.nfs_clusters};
  cloud_config.vm =
      cloud::VmSchedulerConfig{config.vm_boot_delay, config.vod.vm_bandwidth};
  return cloud_config;
}

}  // namespace

void validate_timeline(const ExperimentConfig& config) {
  (void)timeline_envelope_headroom(config.timeline, without_timeline(config));
}

double estimated_peak_users(const ExperimentConfig& config) {
  // Little's law at the diurnal peak: peak concurrent population ≈
  // peak arrival rate × mean session duration. Channel peaks are summed
  // as if they coincided — an upper-leaning estimate, which is the right
  // bias for an engine switch (prefer the scalable core near the line).
  const workload::Workload workload(config.workload, /*seed=*/0);
  const double session_seconds =
      workload.expected_session_chunks() * config.vod.chunk_duration;
  double peak_rate = 0.0;
  for (int c = 0; c < config.workload.num_channels; ++c) {
    peak_rate += workload.channel_max_rate(c);
  }
  return peak_rate * session_seconds;
}

double ExperimentResult::mean_quality() const {
  return mean_over_window(metrics.quality, measure_start, measure_end);
}
double ExperimentResult::mean_reserved_mbps() const {
  return mean_over_window(metrics.reserved_mbps, measure_start, measure_end);
}
double ExperimentResult::mean_used_cloud_mbps() const {
  return mean_over_window(metrics.used_cloud_mbps, measure_start, measure_end);
}
double ExperimentResult::mean_used_peer_mbps() const {
  return mean_over_window(metrics.used_peer_mbps, measure_start, measure_end);
}
double ExperimentResult::mean_vm_cost_rate() const {
  return mean_over_window(metrics.vm_cost_rate, measure_start, measure_end);
}
double ExperimentResult::mean_storage_cost_rate() const {
  return mean_over_window(metrics.storage_cost_rate, measure_start, measure_end);
}
double ExperimentResult::mean_concurrent_users() const {
  return mean_over_window(metrics.concurrent_users, measure_start, measure_end);
}

double ExperimentResult::reserved_covers_used_fraction() const {
  const util::TimeSeries& reserved = metrics.reserved_mbps;
  const util::TimeSeries& used = metrics.used_cloud_mbps;
  std::size_t covered = 0, total = 0;
  for (std::size_t i = 0; i < std::min(reserved.size(), used.size()); ++i) {
    if (reserved.time_at(i) < measure_start || reserved.time_at(i) >= measure_end)
      continue;
    ++total;
    if (reserved.value_at(i) >= used.value_at(i) - 1e-9) ++covered;
  }
  return total ? static_cast<double>(covered) / static_cast<double>(total) : 1.0;
}

double ExperimentResult::late_share() const {
  const vod::SystemCounters& counters = metrics.counters;
  return counters.chunk_downloads > 0
             ? static_cast<double>(counters.late_downloads) /
                   static_cast<double>(counters.chunk_downloads)
             : 0.0;
}

Experiment::Experiment(const ExperimentConfig& config)
    : live_(sorted_live_config(config)),
      baseline_(without_timeline(live_)),
      // The dry pass rejects timeline ops touching frozen fields and
      // pre-pays the arrival-envelope headroom for any mid-run rate
      // increase. Exactly 1.0 (bit-neutral) when the timeline is empty.
      workload_(live_.workload, live_.seed,
                timeline_envelope_headroom(live_.timeline, baseline_)),
      cloud_(simulator_, cloud_config_for(live_)) {
  core::ControllerConfig controller_config{
      live_.vm_clusters, live_.nfs_clusters, live_.vm_budget_per_hour,
      live_.storage_budget_per_hour};
  auto controller = std::make_unique<core::Controller>(
      live_.vod, controller_config, make_policy(live_, workload_));

  vod::StreamingOptions options = live_.streaming;
  options.mode = live_.mode;

  // Engine selection (kDiscrete by default — the exact per-peer path every
  // committed golden replays). kAuto estimates the peak population before
  // anything draws randomness, so routing below the threshold leaves the
  // discrete run bit-identical to engine=discrete.
  const bool use_cohort =
      live_.engine == Engine::kCohort ||
      (live_.engine == Engine::kAuto &&
       estimated_peak_users(live_) >= live_.cohort_threshold);
  if (use_cohort) {
    vod::CohortOptions cohort_options;
    cohort_options.streaming = options;
    cohort_options.window = live_.cohort_window;
    deployment_ = std::make_unique<vod::CohortSystem>(
        simulator_, workload_, live_.vod, cloud_, std::move(controller),
        cohort_options);
  } else {
    deployment_ = std::make_unique<vod::StreamingSystem>(
        simulator_, workload_, live_.vod, cloud_, std::move(controller), options);
  }

  // Schedule the timeline BEFORE the deployment starts: the simulator fires
  // equal-timestamp events in scheduling order, so a mutation scheduled
  // here precedes the provisioning pass of its own boundary — the first
  // post-fire plan already sees the mutated config. Each op lands at the
  // first controller-interval boundary >= its fire time; ops whose boundary
  // falls past the horizon never fire.
  const double interval = options.provisioning_interval;
  for (const TimedConfigOp& op : live_.timeline) {
    double boundary =
        std::ceil(op.fire_time / interval - 1e-9) * interval;
    boundary = std::max(boundary, interval);
    if (boundary > live_.total_duration()) continue;
    simulator_.schedule_at(boundary, [this, &op] {
      op.apply(live_, baseline_);
      workload_.set_config(live_.workload);
      deployment_->controller().set_budgets(live_.vm_budget_per_hour,
                                            live_.storage_budget_per_hour);
      cloud_.set_budgets(live_.vm_budget_per_hour, live_.storage_budget_per_hour);
    });
  }

  deployment_->start();
}

ExperimentResult Experiment::result() const {
  ExperimentResult result;
  result.metrics = deployment_->metrics();
  result.measure_start = live_.measure_start();
  result.measure_end = live_.total_duration();
  result.vm_cost_total = cloud_.billing().total("vm");
  result.storage_cost_total = cloud_.billing().total("storage");
  result.plans_submitted =
      static_cast<long>(cloud_.request_monitor().log().size());
  result.plans_rejected = result.metrics.counters.rejected_plans;
  result.vm_boots = cloud_.vm_monitor().total_boots();
  result.vm_shutdowns = cloud_.vm_monitor().total_shutdowns();
  result.sim_events = simulator_.events_processed();
  result.final_users = static_cast<long>(deployment_->current_users());
  result.planner_passes = deployment_->planner_passes();
  if (const auto* discrete =
          dynamic_cast<const vod::StreamingSystem*>(deployment_.get())) {
    result.rebalance = discrete->rebalance_counters();
  }
  if (const auto* cohort = dynamic_cast<const vod::CohortSystem*>(deployment_.get())) {
    result.used_cohort_engine = true;
    result.cohort = cohort->cohort_counters();
  }
  return result;
}

ExperimentResult ExperimentRunner::run(const ExperimentConfig& config) {
  Experiment experiment(config);
  experiment.run_until(config.total_duration());
  return experiment.result();
}

}  // namespace cloudmedia::expr
