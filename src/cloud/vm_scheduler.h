#pragma once

#include <functional>
#include <vector>

#include "core/vm_allocation.h"
#include "sim/simulator.h"

namespace cloudmedia::cloud {

/// The cloud-side VM scheduler (Fig. 1): boots and shuts down VM instances
/// per the consumer's plan. Booting a VM takes `boot_delay` (the paper
/// measures ~25 s, Sec. VI-C); boots happen in parallel, so a whole
/// scale-up becomes effective one boot-delay after the request. Shutdown
/// is immediate ("even less time").
struct VmSchedulerConfig {
  double boot_delay = 25.0;     ///< seconds until new capacity is usable
  double vm_bandwidth = 1'250'000.0;  ///< R, bytes/s per VM
};

class VmScheduler {
 public:
  VmScheduler(sim::Simulator& simulator,
              std::vector<core::VmClusterSpec> clusters,
              VmSchedulerConfig config);

  /// Apply an instance plan for a library of `num_channels` ×
  /// `chunks_per_video` chunks. Billing-wise instances count from the
  /// request; capacity-wise scale-ups ready after boot_delay.
  void apply(const core::VmProblem& problem, const core::InstancePlan& plan,
             int num_channels, int chunks_per_video);

  /// Bandwidth currently deliverable to a chunk (readiness-scaled).
  [[nodiscard]] double chunk_capacity(int channel, int chunk) const;

  /// Total reserved (billed) bandwidth: billed instances × R.
  [[nodiscard]] double reserved_bandwidth() const;
  /// $/h of currently billed instances.
  [[nodiscard]] double cost_rate() const;

  [[nodiscard]] int billed_instances(std::size_t cluster) const;
  [[nodiscard]] int ready_instances(std::size_t cluster) const;
  [[nodiscard]] std::size_t num_clusters() const noexcept { return clusters_.size(); }

  /// Invoked whenever deliverable capacity changes (plan applied or a boot
  /// completed), so the application can refresh its bandwidth pools.
  void set_capacity_listener(std::function<void()> listener);

 private:
  void notify();

  sim::Simulator* sim_;
  std::vector<core::VmClusterSpec> clusters_;
  VmSchedulerConfig config_;

  struct ClusterState {
    int billed = 0;  ///< requested (and charged) instances
    int ready = 0;   ///< instances past their boot delay
    sim::EventId pending_boot = sim::kInvalidEvent;
  };
  std::vector<ClusterState> states_;
  /// Per cluster, min(ready, billed) / billed (0 with nothing billed):
  /// refreshed from states_ before every notify().
  std::vector<double> readiness_;

  int num_channels_ = 0;
  int chunks_per_video_ = 0;
  /// Planned bandwidth per chunk per cluster, [channel*J + chunk][cluster].
  std::vector<std::vector<double>> chunk_bandwidth_;
  std::function<void()> listener_;
};

}  // namespace cloudmedia::cloud
