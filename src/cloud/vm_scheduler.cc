#include "cloud/vm_scheduler.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace cloudmedia::cloud {

VmScheduler::VmScheduler(sim::Simulator& simulator,
                         std::vector<core::VmClusterSpec> clusters,
                         VmSchedulerConfig config)
    : sim_(&simulator), clusters_(std::move(clusters)), config_(config) {
  CM_EXPECTS(!clusters_.empty());
  for (const core::VmClusterSpec& c : clusters_) c.validate();
  CM_EXPECTS(config_.boot_delay >= 0.0);
  CM_EXPECTS(config_.vm_bandwidth > 0.0);
  states_.resize(clusters_.size());
  readiness_.assign(clusters_.size(), 0.0);
}

void VmScheduler::apply(const core::VmProblem& problem,
                        const core::InstancePlan& plan, int num_channels,
                        int chunks_per_video) {
  CM_EXPECTS(num_channels > 0 && chunks_per_video > 0);
  CM_EXPECTS(plan.per_cluster_count.size() == clusters_.size());

  num_channels_ = num_channels;
  chunks_per_video_ = chunks_per_video;
  chunk_bandwidth_.assign(
      static_cast<std::size_t>(num_channels) *
          static_cast<std::size_t>(chunks_per_video),
      std::vector<double>(clusters_.size(), 0.0));

  for (const core::VmInstance& instance : plan.instances) {
    for (const auto& [flat_chunk, fraction] : instance.slices) {
      CM_EXPECTS(flat_chunk < problem.chunks.size());
      const core::ChunkRef ref = problem.chunks[flat_chunk].ref;
      CM_EXPECTS(ref.channel >= 0 && ref.channel < num_channels);
      CM_EXPECTS(ref.chunk >= 0 && ref.chunk < chunks_per_video);
      const std::size_t key =
          static_cast<std::size_t>(ref.channel) *
              static_cast<std::size_t>(chunks_per_video) +
          static_cast<std::size_t>(ref.chunk);
      chunk_bandwidth_[key][instance.cluster] +=
          fraction * config_.vm_bandwidth;
    }
  }

  for (std::size_t v = 0; v < clusters_.size(); ++v) {
    ClusterState& state = states_[v];
    const int target = plan.per_cluster_count[v];
    CM_EXPECTS(target <= clusters_[v].max_vms);
    if (state.pending_boot != sim::kInvalidEvent) {
      sim_->cancel(state.pending_boot);
      state.pending_boot = sim::kInvalidEvent;
    }
    state.billed = target;
    if (target <= state.ready) {
      state.ready = target;  // shutdown is immediate
    } else if (config_.boot_delay == 0.0) {
      state.ready = target;
    } else {
      // Boots run in parallel: all missing instances ready together.
      state.pending_boot = sim_->schedule_in(config_.boot_delay, [this, v, target] {
        states_[v].ready = target;
        states_[v].pending_boot = sim::kInvalidEvent;
        notify();
      });
    }
  }
  notify();
}

double VmScheduler::chunk_capacity(int channel, int chunk) const {
  if (chunk_bandwidth_.empty()) return 0.0;
  CM_EXPECTS(channel >= 0 && channel < num_channels_);
  CM_EXPECTS(chunk >= 0 && chunk < chunks_per_video_);
  const std::size_t key = static_cast<std::size_t>(channel) *
                              static_cast<std::size_t>(chunks_per_video_) +
                          static_cast<std::size_t>(chunk);
  const std::vector<double>& bandwidth = chunk_bandwidth_[key];
  double capacity = 0.0;
  for (std::size_t v = 0; v < clusters_.size(); ++v) {
    capacity += bandwidth[v] * readiness_[v];
  }
  return capacity;
}

double VmScheduler::reserved_bandwidth() const {
  double total = 0.0;
  for (const ClusterState& state : states_) {
    total += static_cast<double>(state.billed) * config_.vm_bandwidth;
  }
  return total;
}

double VmScheduler::cost_rate() const {
  double rate = 0.0;
  for (std::size_t v = 0; v < clusters_.size(); ++v) {
    rate += static_cast<double>(states_[v].billed) * clusters_[v].price_per_hour;
  }
  return rate;
}

int VmScheduler::billed_instances(std::size_t cluster_index) const {
  CM_EXPECTS(cluster_index < states_.size());
  return states_[cluster_index].billed;
}

int VmScheduler::ready_instances(std::size_t cluster_index) const {
  CM_EXPECTS(cluster_index < states_.size());
  return std::min(states_[cluster_index].ready, states_[cluster_index].billed);
}

void VmScheduler::set_capacity_listener(std::function<void()> listener) {
  listener_ = std::move(listener);
}

void VmScheduler::notify() {
  for (std::size_t v = 0; v < states_.size(); ++v) {
    const ClusterState& state = states_[v];
    readiness_[v] = state.billed > 0
                        ? static_cast<double>(std::min(state.ready, state.billed)) /
                              static_cast<double>(state.billed)
                        : 0.0;
  }
  if (listener_) listener_();
}

}  // namespace cloudmedia::cloud
