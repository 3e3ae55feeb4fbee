#include "stepped.h"

#include <algorithm>
#include <cmath>

#include "cloud/cloud_service.h"
#include "core/demand.h"
#include "core/storage_rental.h"
#include "core/vm_allocation.h"
#include "predict/policy.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "vod/cohort_system.h"
#include "vod/streaming_system.h"

namespace perfbench {

namespace cm = cloudmedia;

namespace {

/// The decorator the traced run hands Controller in place of the bare
/// policy: times every estimate() and keeps a copy of its report (outside
/// the timed interval) for the controller replay.
class TimedPolicy final : public cm::core::DemandPolicy {
 public:
  TimedPolicy(std::unique_ptr<cm::core::DemandPolicy> inner, SteppedLayers& layers,
              Trace& trace, const long& parent)
      : inner_(std::move(inner)), layers_(layers), trace_(trace), parent_(parent) {}

  [[nodiscard]] cm::core::DemandSet estimate(
      const cm::core::TrackerReport& report) override {
    const long span = trace_.open("core.estimate", parent_);
    cm::core::DemandSet demand = inner_->estimate(report);
    layers_.estimate_ms += trace_.close(span);
    layers_.reports.push_back(report);
    return demand;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<cm::core::DemandPolicy> inner_;
  SteppedLayers& layers_;
  Trace& trace_;
  const long& parent_;
};

/// ExperimentRunner's arrival-envelope headroom: the max, over timeline
/// states and channels, of channel_max_rate relative to the t=0 config
/// (exactly 1.0 for an empty timeline). The runner's frozen-field checks
/// are not repeated: the reference run has already passed them.
double envelope_headroom(const cm::expr::ExperimentConfig& live,
                         const cm::expr::ExperimentConfig& baseline) {
  if (live.timeline.empty()) return 1.0;
  double headroom = 1.0;
  const cm::workload::Workload initial(baseline.workload, /*seed=*/0);
  cm::expr::ExperimentConfig scratch = baseline;
  for (const cm::expr::TimedConfigOp& op : live.timeline) {
    op.apply(scratch, baseline);
    const cm::workload::Workload after(scratch.workload, /*seed=*/0);
    for (int c = 0; c < baseline.workload.num_channels; ++c) {
      const double base_rate = initial.channel_max_rate(c);
      if (base_rate > 0.0) {
        headroom = std::max(headroom, after.channel_max_rate(c) / base_rate);
      }
    }
  }
  return headroom;
}

double pool_jobs(auto& system, const cm::expr::ExperimentConfig& config) {
  double jobs = 0.0;
  for (int c = 0; c < config.workload.num_channels; ++c) {
    for (int j = 0; j < config.vod.chunks_per_video; ++j) {
      const cm::vod::ServicePool& pool = system.pool(c, j);
      jobs += static_cast<double>(pool.active_jobs()) + pool.fluid_jobs();
    }
  }
  return jobs;
}

/// The runner's engine choice: kAuto compares the closed-form peak
/// estimate against the threshold before anything draws randomness.
bool uses_cohort_engine(const cm::expr::ExperimentConfig& config) {
  return config.engine == cm::expr::Engine::kCohort ||
         (config.engine == cm::expr::Engine::kAuto &&
          cm::expr::estimated_peak_users(config) >= config.cohort_threshold);
}

}  // namespace

std::unique_ptr<cm::core::DemandPolicy> make_policy(
    const cm::expr::ExperimentConfig& config, const cm::workload::Workload& workload) {
  using cm::expr::Strategy;
  cm::core::DemandEstimatorConfig estimator;
  estimator.mode = config.mode;
  estimator.capacity_model = config.capacity_model;
  estimator.occupancy_floor = config.occupancy_floor;
  estimator.p2p = config.p2p;

  switch (config.strategy) {
    case Strategy::kModelBased:
      return std::make_unique<cm::core::ModelBasedPolicy>(config.vod, estimator);
    case Strategy::kReactive:
      return std::make_unique<cm::core::ReactivePolicy>(config.vod,
                                                        config.reactive_margin);
    case Strategy::kStatic: {
      cm::core::DemandEstimator peak_estimator(config.vod, estimator);
      const cm::workload::ViewingBehavior& behavior = config.workload.behavior;
      const int j = config.vod.chunks_per_video;
      cm::core::ChannelObservation obs;
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
      double available = 0.0;
      for (const cm::core::VmClusterSpec& cluster : config.vm_clusters) {
        available += static_cast<double>(cluster.max_vms) * config.vod.vm_bandwidth;
      }
      if (total > available && total > 0.0) {
        const double scale = available / total;
        for (auto& channel : demand) {
          for (double& d : channel) d *= scale;
        }
      }
      return std::make_unique<cm::core::StaticPolicy>(std::move(demand));
    }
    case Strategy::kSeasonal:
      return std::make_unique<cm::core::SeasonalPolicy>(config.vod, estimator);
    case Strategy::kForecast:
      return std::make_unique<cm::predict::ForecastPolicy>(config.vod, estimator,
                                                           config.forecaster);
    case Strategy::kClairvoyant:
      return std::make_unique<cm::core::ClairvoyantPolicy>(
          config.vod, estimator,
          [&workload](int channel, double t0, double t1) {
            CM_EXPECTS(t1 > t0);
            double acc = 0.0;
            int n = 0;
            for (double t = t0; t < t1; t += 60.0) {
              acc += workload.channel_rate(channel, t);
              ++n;
            }
            return n > 0 ? acc / n : workload.channel_rate(channel, t0);
          });
  }
  throw cm::util::PreconditionError("unknown strategy");
}

SteppedRun run_stepped(const cm::expr::ExperimentConfig& config, Trace& trace,
                       long parent) {
  const long build_span = trace.open("vod.build", parent);
  config.validate();
  SteppedRun out;
  SteppedLayers& layers = out.layers;

  cm::expr::ExperimentConfig live = config;
  std::stable_sort(live.timeline.begin(), live.timeline.end(),
                   [](const cm::expr::TimedConfigOp& a, const cm::expr::TimedConfigOp& b) {
                     return a.fire_time < b.fire_time;
                   });
  cm::expr::ExperimentConfig baseline = live;
  baseline.timeline.clear();
  const double headroom = envelope_headroom(live, baseline);

  cm::sim::Simulator simulator;
  cm::workload::Workload workload(live.workload, live.seed, headroom);

  cm::cloud::CloudConfig cloud_config;
  cloud_config.sla = cm::cloud::SlaTerms{live.vm_budget_per_hour,
                                         live.storage_budget_per_hour,
                                         live.vm_clusters, live.nfs_clusters};
  cloud_config.vm =
      cm::cloud::VmSchedulerConfig{live.vm_boot_delay, live.vod.vm_bandwidth};
  cm::cloud::CloudService cloud(simulator, cloud_config);

  long step_span = parent;
  cm::core::ControllerConfig controller_config{
      live.vm_clusters, live.nfs_clusters, live.vm_budget_per_hour,
      live.storage_budget_per_hour};
  auto controller = std::make_unique<cm::core::Controller>(
      live.vod, controller_config,
      std::make_unique<TimedPolicy>(make_policy(live, workload), layers, trace,
                                    step_span));
  cm::core::Controller* controller_raw = controller.get();

  cm::vod::StreamingOptions options = live.streaming;
  options.mode = live.mode;
  const bool use_cohort = uses_cohort_engine(live);

  std::unique_ptr<cm::vod::StreamingSystem> discrete_system;
  std::unique_ptr<cm::vod::CohortSystem> cohort_system;
  if (use_cohort) {
    cm::vod::CohortOptions cohort_options;
    cohort_options.streaming = options;
    cohort_options.window = live.cohort_window;
    cohort_system = std::make_unique<cm::vod::CohortSystem>(
        simulator, workload, live.vod, cloud, std::move(controller), cohort_options);
  } else {
    discrete_system = std::make_unique<cm::vod::StreamingSystem>(
        simulator, workload, live.vod, cloud, std::move(controller), options);
  }

  const double interval = options.provisioning_interval;
  for (const cm::expr::TimedConfigOp& op : live.timeline) {
    double boundary = std::ceil(op.fire_time / interval - 1e-9) * interval;
    boundary = std::max(boundary, interval);
    if (boundary > live.total_duration()) continue;
    simulator.schedule_at(
        boundary, [&live, &baseline, &workload, controller_raw, &cloud, &op] {
          op.apply(live, baseline);
          workload.set_config(live.workload);
          controller_raw->set_budgets(live.vm_budget_per_hour,
                                      live.storage_budget_per_hour);
          cloud.set_budgets(live.vm_budget_per_hour, live.storage_budget_per_hour);
        });
  }

  layers.build_ms = trace.close(build_span);
  const long start_span = trace.open("vod.start", parent);
  if (cohort_system) {
    cohort_system->start();
  } else {
    discrete_system->start();
  }
  layers.start_ms = trace.close(start_span);
  layers.run_ms += layers.start_ms;

  const double horizon = live.total_duration();
  layers.step_ms.reserve(kTraceSteps);
  for (int i = 1; i <= kTraceSteps; ++i) {
    const double until = i == kTraceSteps ? horizon : horizon * i / kTraceSteps;
    step_span = trace.open("vod.step", parent);
    simulator.run_until(until);
    const double ms = trace.close(step_span);
    step_span = parent;
    layers.step_ms.push_back(ms);
    layers.run_ms += ms;
    layers.pending_peak = std::max(layers.pending_peak, simulator.pending());
    if (cohort_system) {
      layers.peak_cohorts = std::max(
          layers.peak_cohorts, static_cast<double>(cohort_system->live_cohorts()));
      layers.peak_pool_jobs = std::max(layers.peak_pool_jobs, pool_jobs(*cohort_system, live));
    } else {
      layers.peak_pool_jobs =
          std::max(layers.peak_pool_jobs, pool_jobs(*discrete_system, live));
    }
  }
  layers.ring_slots = simulator.callback_ring_capacity();

  cm::expr::ExperimentResult& result = out.result;
  result.metrics = cohort_system ? cohort_system->metrics() : discrete_system->metrics();
  result.measure_start = live.measure_start();
  result.measure_end = live.total_duration();
  result.vm_cost_total = cloud.billing().total("vm");
  result.storage_cost_total = cloud.billing().total("storage");
  result.plans_submitted = static_cast<long>(cloud.request_monitor().log().size());
  result.plans_rejected = result.metrics.counters.rejected_plans;
  result.vm_boots = cloud.vm_monitor().total_boots();
  result.vm_shutdowns = cloud.vm_monitor().total_shutdowns();
  result.sim_events = simulator.events_processed();
  result.final_users = static_cast<long>(
      cohort_system ? cohort_system->current_users() : discrete_system->current_users());
  result.used_cohort_engine = use_cohort;
  return out;
}

std::string fidelity_mismatch(const cm::expr::ExperimentResult& stepped,
                              const cm::expr::ExperimentResult& reference) {
  const cm::vod::SystemCounters& a = stepped.metrics.counters;
  const cm::vod::SystemCounters& b = reference.metrics.counters;
  if (a.arrivals != b.arrivals) return "arrivals";
  if (a.departures != b.departures) return "departures";
  if (stepped.final_users != reference.final_users) return "final_users";
  if (stepped.sim_events != reference.sim_events) return "sim_events";
  if (stepped.vm_cost_total != reference.vm_cost_total) return "vm_cost_total";
  if (stepped.storage_cost_total != reference.storage_cost_total) {
    return "storage_cost_total";
  }
  if (stepped.plans_submitted != reference.plans_submitted) return "plans_submitted";
  if (stepped.plans_rejected != reference.plans_rejected) return "plans_rejected";
  if (stepped.vm_boots != reference.vm_boots) return "vm_boots";
  if (stepped.mean_quality() != reference.mean_quality()) return "mean_quality";
  return {};
}

ControllerReplay replay_controller(const cm::expr::ExperimentConfig& config,
                                   const std::vector<cm::core::TrackerReport>& reports,
                                   Trace& trace, long parent) {
  // A fresh policy replays the reports in order, so stateful policies
  // (seasonal history, forecasters) evolve as they did in place. Budgets
  // stay at their t=0 values: timeline cuts are not replayed.
  const cm::workload::Workload workload(config.workload, config.seed);
  const cm::core::Controller controller(
      config.vod,
      cm::core::ControllerConfig{config.vm_clusters, config.nfs_clusters,
                                 config.vm_budget_per_hour,
                                 config.storage_budget_per_hour},
      make_policy(config, workload));
  ControllerReplay replay;
  replay.plan_ms.reserve(reports.size());
  for (const cm::core::TrackerReport& report : reports) {
    long span = trace.open("core.plan", parent);
    const cm::core::ProvisioningPlan plan = controller.plan(report);
    replay.plan_ms.push_back(trace.close(span));

    span = trace.open("core.storage", parent);
    const cm::core::StorageAssignment storage =
        cm::core::solve_storage_greedy(plan.storage_problem);
    replay.storage_ms += trace.close(span);

    span = trace.open("core.vm", parent);
    const cm::core::VmAllocation vm = cm::core::solve_vm_greedy(plan.vm_problem);
    const cm::core::InstancePlan instances = cm::core::pack_instances(plan.vm_problem, vm);
    replay.vm_ms += trace.close(span);
    (void)storage;
    (void)instances;
  }
  return replay;
}

double draw_arrivals(const cm::expr::ExperimentConfig& config, Trace& trace, long parent) {
  const cm::workload::Workload workload(config.workload, config.seed);
  const double horizon = config.total_duration();
  const long span = trace.open("workload.draw", parent);
  for (int c = 0; c < workload.num_channels(); ++c) {
    if (uses_cohort_engine(config)) {
      // One Poisson count per channel-window, as CohortSystem draws them.
      cm::workload::CohortArrivals arrivals =
          workload.make_cohort_arrivals(c, config.cohort_window);
      for (double t = 0.0; t < horizon; t += config.cohort_window) {
        (void)arrivals.sample_count(t);
      }
    } else {
      cm::workload::PoissonArrivals arrivals = workload.make_arrivals(c);
      for (double t = arrivals.next_after(0.0); t < horizon; t = arrivals.next_after(t)) {
      }
    }
  }
  return trace.close(span);
}

}  // namespace perfbench
