#include "vod/deployment.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/check.h"
#include "util/units.h"

namespace cloudmedia::vod {

namespace {

/// Standby weight an idle chunk keeps when the channel's cloud bandwidth
/// is re-split (so a fresh request is not starved until the next tick).
constexpr double kStandbyWeight = 0.25;

}  // namespace

Deployment::Deployment(sim::Simulator& simulator,
                       const workload::Workload& workload,
                       core::VodParameters params, cloud::CloudService& cloud,
                       std::unique_ptr<core::Controller> controller,
                       const StreamingOptions& options,
                       const CompletionForward& forward)
    : sim_(&simulator),
      workload_(&workload),
      params_(params),
      cloud_(&cloud),
      options_(options),
      num_channels_(workload.num_channels()),
      num_chunks_(params.chunks_per_video),
      tracker_(workload.num_channels(), params.chunks_per_video),
      controller_(std::move(controller)) {
  params_.validate();
  CM_EXPECTS(controller_ != nullptr);
  CM_EXPECTS(workload.config().chunks_per_video == params.chunks_per_video);
  CM_EXPECTS(options_.sample_interval > 0.0);

  const std::size_t total =
      static_cast<std::size_t>(num_channels_) * static_cast<std::size_t>(num_chunks_);
  pools_.reserve(total);
  for (int c = 0; c < num_channels_; ++c) {
    for (int i = 0; i < num_chunks_; ++i) {
      pools_.push_back(std::make_unique<ServicePool>(
          simulator, params_.vm_bandwidth, forward(c, i)));
    }
  }
  served_cloud_snapshot_.assign(total, 0.0);
  metrics_.channels.resize(static_cast<std::size_t>(num_channels_));

  cloud_->vm_scheduler().set_capacity_listener([this] { rebalance_capacity(); });
}

void Deployment::start() {
  CM_EXPECTS(!started_);
  started_ = true;
  schedule_start();
}

void Deployment::schedule_bootstrap() {
  sim_->schedule_at(sim_->now(), [this] {
    apply_plan(controller_->plan(bootstrap_report()));
    record_plan_series(sim_->now());
  });
}

void Deployment::schedule_periodics() {
  const double t0 = sim_->now();
  sim_->schedule_periodic(t0 + options_.provisioning_interval,
                          options_.provisioning_interval,
                          [this](double t) { run_provisioning(t); });
  sim_->schedule_periodic(t0 + options_.rebalance_interval,
                          options_.rebalance_interval,
                          [this](double) { rebalance_capacity(); });
  sim_->schedule_periodic(t0 + options_.sample_interval, options_.sample_interval,
                          [this](double t) { sample_bandwidth(t); });
  sim_->schedule_periodic(t0 + options_.quality_interval,
                          options_.quality_interval,
                          [this](double t) { sample_quality(t); });
}

std::size_t Deployment::current_users() const {
  return static_cast<std::size_t>(std::llround(std::max(0.0, population())));
}

// --- provisioning loop ------------------------------------------------------

core::TrackerReport Deployment::bootstrap_report() const {
  // Window-labelling: see the declaration — interval_start is the start of
  // the described window, here the upcoming [now, now+T) forecast.
  core::TrackerReport report;
  report.interval_start = sim_->now();
  report.interval_length = options_.provisioning_interval;
  report.channels.resize(static_cast<std::size_t>(num_channels_));
  const workload::ViewingBehavior& behavior = workload_->config().behavior;
  const util::Matrix transfer = behavior.transfer_matrix(num_chunks_);
  const std::vector<double> entry = behavior.entry_distribution(num_chunks_);
  const double uplink_mean = workload_->uplink_distribution().mean();
  for (int c = 0; c < num_channels_; ++c) {
    core::ChannelObservation& obs = report.channels[static_cast<std::size_t>(c)];
    obs.arrival_rate = workload_->channel_rate(c, sim_->now());
    obs.transfer = transfer;
    obs.entry = entry;
    obs.occupancy.assign(static_cast<std::size_t>(num_chunks_), 0.0);
    obs.served_cloud_bandwidth.assign(static_cast<std::size_t>(num_chunks_), 0.0);
    obs.mean_peer_uplink = uplink_mean;
  }
  return report;
}

void Deployment::run_provisioning(double now) {
  const double interval = options_.provisioning_interval;
  const auto chunks = static_cast<std::size_t>(num_chunks_);
  std::vector<std::vector<double>> occupancy(
      static_cast<std::size_t>(num_channels_), std::vector<double>(chunks, 0.0));
  std::vector<std::vector<double>> served = occupancy;
  std::vector<double> mean_uplink(static_cast<std::size_t>(num_channels_), 0.0);
  harvest_population(occupancy, mean_uplink);

  for (std::size_t key = 0; key < pools_.size(); ++key) {
    ServicePool& p = *pools_[key];
    p.sync();
    served[key / chunks][key % chunks] =
        (p.cloud_bytes_served() - served_cloud_snapshot_[key]) / interval;
    served_cloud_snapshot_[key] = p.cloud_bytes_served();
  }

  const core::TrackerReport report =
      tracker_.harvest(now - interval, interval, occupancy, mean_uplink, served);
  apply_plan(controller_->plan(report));
  record_plan_series(now);
}

void Deployment::apply_plan(core::ProvisioningPlan plan) {
  planner_passes_ += plan.demand.substitution_passes;
  if (!cloud_->submit_plan(plan, num_channels_, num_chunks_)) {
    ++metrics_.counters.rejected_plans;
    std::fprintf(stderr, "[WARN] cloud rejected provisioning plan at t=%g\n",
                 sim_->now());
    return;
  }
  last_plan_ = std::move(plan);
  // Pool capacities refresh through the VM scheduler's listener.
}

void Deployment::record_plan_series(double now) {
  if (!last_plan_) return;
  const core::ProvisioningPlan& plan = *last_plan_;
  metrics_.vm_cost_rate.add(now, cloud_->vm_cost_rate());
  metrics_.storage_cost_rate.add(now, cloud_->storage_cost_rate());
  const std::vector<double> storage_utility = core::storage_utility_by_channel(
      plan.storage_problem, plan.storage, num_channels_);
  const std::vector<double> vm_utility =
      core::vm_utility_by_channel(plan.vm_problem, plan.vm, num_channels_);
  for (std::size_t ch = 0; ch < metrics_.channels.size(); ++ch) {
    ChannelSeries& series = metrics_.channels[ch];
    double provisioned = 0.0;
    for (double b : plan.chunk_cloud_bandwidth[ch]) provisioned += b;
    series.provisioned_mbps.add(now, util::to_mbps(provisioned));
    series.storage_utility.add(now, storage_utility[ch]);
    series.vm_utility.add(now, vm_utility[ch]);
  }
}

void Deployment::split_cloud_share(int channel, std::span<const double> demand,
                                   std::span<double> share) const {
  double channel_cloud = 0.0;
  double weight_total = 0.0;
  for (std::size_t i = 0; i < share.size(); ++i) {
    channel_cloud += cloud_->chunk_capacity(channel, static_cast<int>(i));
    share[i] = demand[i] + kStandbyWeight;  // the chunk's weight
    weight_total += share[i];
  }
  const bool split = channel_cloud > 0.0 && weight_total > 0.0;
  for (double& w : share) w = split ? channel_cloud * w / weight_total : 0.0;
}

// --- metrics ---------------------------------------------------------------

double Deployment::cloud_rate_now() const {
  double rate = 0.0;
  for (const auto& p : pools_) rate += p->cloud_rate();
  return rate;
}

double Deployment::peer_rate_now() const {
  double rate = 0.0;
  for (const auto& p : pools_) rate += p->peer_rate();
  return rate;
}

void Deployment::sample_bandwidth(double now) {
  metrics_.reserved_mbps.add(now, util::to_mbps(cloud_->reserved_bandwidth()));
  metrics_.used_cloud_mbps.add(now, util::to_mbps(cloud_rate_now()));
  metrics_.used_peer_mbps.add(now, util::to_mbps(peer_rate_now()));
  metrics_.concurrent_users.add(now, population());
  for (int c = 0; c < num_channels_; ++c) {
    metrics_.channels[static_cast<std::size_t>(c)].size.add(now,
                                                           channel_population(c));
  }
}

std::size_t SystemMetrics::total_samples() const noexcept {
  std::size_t n = reserved_mbps.size() + used_cloud_mbps.size() +
                  used_peer_mbps.size() + quality.size() +
                  vm_cost_rate.size() + storage_cost_rate.size() +
                  concurrent_users.size();
  for (const ChannelSeries& series : channels) {
    n += series.size.size() + series.quality.size() +
         series.provisioned_mbps.size() + series.storage_utility.size() +
         series.vm_utility.size();
  }
  return n;
}

}  // namespace cloudmedia::vod
