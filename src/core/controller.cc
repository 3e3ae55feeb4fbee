#include "core/controller.h"

#include <cmath>
#include <cstring>
#include <span>
#include <utility>

#include "util/check.h"

namespace cloudmedia::core {

ModelBasedPolicy::ModelBasedPolicy(VodParameters params,
                                   DemandEstimatorConfig config)
    : estimator_(params, config) {}

namespace {

bool same_bits(const util::Matrix& a, const util::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.rows() == 0 ||
          std::memcmp(a.row(0), b.row(0),
                      a.rows() * a.cols() * sizeof(double)) == 0);
}

}  // namespace

DemandSet estimate_channels(
    const DemandEstimator& estimator, const TrackerReport& report,
    const std::function<double(std::size_t, double)>& rate) {
  const std::span<const ChannelObservation> channels = report.channels;
  DemandSet out;
  out.cloud_demand.reserve(channels.size());
  out.estimates.reserve(channels.size());
  // A run of channels reporting the same P̂ (the bootstrap plan gives every
  // channel the ground-truth P) shares one set of factors and one batch.
  std::vector<double> rates;
  for (std::size_t begin = 0, end = 0; begin < channels.size(); begin = end) {
    const util::Matrix& transfer = channels[begin].transfer;
    rates.clear();
    for (end = begin; end < channels.size() &&
                      same_bits(channels[end].transfer, transfer);
         ++end) {
      rates.push_back(rate(end, channels[end].arrival_rate));
    }
    const ChannelFactors factors = estimator.factor(channels[begin]);
    for (ChannelDemandEstimate& est : estimator.estimate_run(
             channels.subspan(begin, end - begin), rates, factors,
             out.substitution_passes)) {
      out.cloud_demand.push_back(est.cloud_demand);
      out.estimates.push_back(std::move(est));
    }
  }
  return out;
}

DemandSet ModelBasedPolicy::estimate(const TrackerReport& report) {
  return estimate_channels(estimator_, report,
                           [](std::size_t, double measured) {
                             return measured;
                           });
}

ReactivePolicy::ReactivePolicy(VodParameters params, double margin)
    : params_(params), margin_(margin) {
  params_.validate();
  CM_EXPECTS(margin >= 1.0);
}

DemandSet ReactivePolicy::estimate(const TrackerReport& report) {
  const auto j = static_cast<std::size_t>(params_.chunks_per_video);
  DemandSet out;
  out.cloud_demand.reserve(report.channels.size());
  for (const ChannelObservation& obs : report.channels) {
    std::vector<double> demand(j, 0.0);
    for (std::size_t i = 0; i < j; ++i) {
      double load = 0.0;
      if (!obs.served_cloud_bandwidth.empty()) {
        CM_EXPECTS(obs.served_cloud_bandwidth.size() == j);
        load = obs.served_cloud_bandwidth[i];
      }
      if (!obs.occupancy.empty()) {
        CM_EXPECTS(obs.occupancy.size() == j);
        // Users currently parked at chunk i consume r each; this is what
        // lets a usage-chaser recover from a cold start or a stall (served
        // bandwidth alone is zero in both).
        load = std::max(load, obs.occupancy[i] * params_.streaming_rate);
      }
      demand[i] = load * margin_;
    }
    out.cloud_demand.push_back(std::move(demand));
  }
  return out;
}

StaticPolicy::StaticPolicy(std::vector<std::vector<double>> cloud_demand)
    : demand_(std::move(cloud_demand)) {
  CM_EXPECTS(!demand_.empty());
  for (const auto& channel : demand_) {
    for (double d : channel) CM_EXPECTS(d >= 0.0);
  }
}

DemandSet StaticPolicy::estimate(const TrackerReport& report) {
  CM_EXPECTS(report.channels.size() == demand_.size());
  DemandSet out;
  out.cloud_demand = demand_;
  return out;
}

SeasonalPolicy::SeasonalPolicy(VodParameters params,
                               DemandEstimatorConfig config)
    : estimator_(params, config) {}

DemandSet SeasonalPolicy::estimate(const TrackerReport& report) {
  CM_EXPECTS(report.interval_length > 0.0);
  if (slots_ == 0) {
    slots_ = std::max(
        1, static_cast<int>(std::lround(kPeriod / report.interval_length)));
    history_.assign(report.channels.size(),
                    std::vector<double>(static_cast<std::size_t>(slots_), -1.0));
  }
  CM_EXPECTS(history_.size() == report.channels.size());

  const auto slot_of = [&](double t) {
    const double phase = std::fmod(t, kPeriod);
    return static_cast<std::size_t>(
        static_cast<int>(phase / report.interval_length) % slots_);
  };
  const std::size_t measured_slot = slot_of(report.interval_start);
  const std::size_t next_slot =
      slot_of(report.interval_start + report.interval_length);

  return estimate_channels(
      estimator_, report, [&](std::size_t c, double measured) {
        std::vector<double>& row = history_[c];
        double& slot_rate = row[measured_slot];
        slot_rate = slot_rate < 0.0
                        ? measured
                        : (1.0 - kEwma) * slot_rate + kEwma * measured;
        const double seasonal = row[next_slot];
        // Persistence until the same slot has been seen at least once.
        return seasonal < 0.0 ? measured
                              : (1.0 - kBlend) * measured + kBlend * seasonal;
      });
}

ClairvoyantPolicy::ClairvoyantPolicy(
    VodParameters params, DemandEstimatorConfig config,
    std::function<double(int, double, double)> future_rate)
    : estimator_(params, config), future_rate_(std::move(future_rate)) {
  CM_EXPECTS(future_rate_ != nullptr);
}

DemandSet ClairvoyantPolicy::estimate(const TrackerReport& report) {
  const double t0 = report.interval_start + report.interval_length;
  const double t1 = t0 + report.interval_length;
  // The oracle swaps the measured rate for the true mean rate of the
  // interval the plan will serve; viewing patterns stay as measured.
  return estimate_channels(estimator_, report, [&](std::size_t c, double) {
    return future_rate_(static_cast<int>(c), t0, t1);
  });
}

void ControllerConfig::validate() const {
  CM_EXPECTS(!vm_clusters.empty());
  CM_EXPECTS(!nfs_clusters.empty());
  for (const VmClusterSpec& c : vm_clusters) c.validate();
  for (const NfsClusterSpec& c : nfs_clusters) c.validate();
  CM_EXPECTS(vm_budget_per_hour >= 0.0);
  CM_EXPECTS(storage_budget_per_hour >= 0.0);
}

Controller::Controller(VodParameters params, ControllerConfig config,
                       std::unique_ptr<DemandPolicy> policy)
    : params_(params), config_(std::move(config)), policy_(std::move(policy)) {
  params_.validate();
  config_.validate();
  CM_EXPECTS(policy_ != nullptr);
}

void Controller::set_budgets(double vm_budget_per_hour,
                             double storage_budget_per_hour) {
  config_.vm_budget_per_hour = vm_budget_per_hour;
  config_.storage_budget_per_hour = storage_budget_per_hour;
  config_.validate();
}

ProvisioningPlan Controller::plan(const TrackerReport& report) const {
  const auto j = static_cast<std::size_t>(params_.chunks_per_video);

  ProvisioningPlan out;
  out.demand = policy_->estimate(report);
  CM_ENSURES(out.demand.cloud_demand.size() == report.channels.size());

  // Flatten [channel][chunk] demand for the two optimizers.
  std::vector<ChunkDemand> flat;
  flat.reserve(report.channels.size() * j);
  for (std::size_t c = 0; c < out.demand.cloud_demand.size(); ++c) {
    CM_ENSURES(out.demand.cloud_demand[c].size() == j);
    for (std::size_t i = 0; i < j; ++i) {
      flat.push_back(ChunkDemand{
          ChunkRef{static_cast<int>(c), static_cast<int>(i)},
          out.demand.cloud_demand[c][i]});
    }
  }

  // Storage rental (Sec. V-A1). Note every chunk must be stored regardless
  // of demand: the cloud is "the only persistent source of all original
  // videos" (Sec. III-B).
  out.storage_problem = StorageProblem{config_.nfs_clusters, flat,
                                       params_.chunk_bytes(),
                                       config_.storage_budget_per_hour};
  out.storage = solve_storage_greedy(out.storage_problem);
  out.storage_cost_rate = out.storage.cost_per_hour;

  // VM configuration (Sec. V-A2).
  out.vm_problem = VmProblem{config_.vm_clusters, flat, params_.vm_bandwidth,
                             config_.vm_budget_per_hour};
  out.vm = solve_vm_greedy(out.vm_problem);
  out.instances = pack_instances(out.vm_problem, out.vm);
  out.vm_cost_rate = out.instances.cost_per_hour;

  // Realized per-chunk bandwidth (what the schedulers will provide).
  out.chunk_cloud_bandwidth.assign(report.channels.size(),
                                   std::vector<double>(j, 0.0));
  for (std::size_t k = 0; k < flat.size(); ++k) {
    double vms = 0.0;
    for (double share : out.vm.z[k]) vms += share;
    const double bandwidth = vms * params_.vm_bandwidth;
    const ChunkRef ref = flat[k].ref;
    out.chunk_cloud_bandwidth[static_cast<std::size_t>(ref.channel)]
                             [static_cast<std::size_t>(ref.chunk)] = bandwidth;
    out.reserved_bandwidth += bandwidth;
  }
  return out;
}

}  // namespace cloudmedia::core
