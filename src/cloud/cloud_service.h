#pragma once

#include <memory>

#include "cloud/billing.h"
#include "cloud/broker.h"
#include "cloud/nfs_scheduler.h"
#include "cloud/vm_scheduler.h"
#include "core/controller.h"
#include "sim/simulator.h"

namespace cloudmedia::cloud {

/// The IaaS cloud of Sec. III-A, wired per Fig. 1: the consumer submits a
/// provisioning plan through the Broker; the Request Monitor logs it; the
/// SLA Negotiator validates it; the VM and NFS schedulers carry it out;
/// the VM Monitor tracks instance churn; the cost meter bills usage time.
struct CloudConfig {
  SlaTerms sla;
  VmSchedulerConfig vm;
};

class CloudService {
 public:
  CloudService(sim::Simulator& simulator, CloudConfig config);

  /// Broker entry point: submit the consumer's plan for the next interval.
  /// Returns false (and changes nothing) if the SLA negotiator rejects it.
  bool submit_plan(const core::ProvisioningPlan& plan, int num_channels,
                   int chunks_per_video);

  /// Bandwidth currently deliverable to a chunk.
  [[nodiscard]] double chunk_capacity(int channel, int chunk) const {
    return vm_scheduler_.chunk_capacity(channel, chunk);
  }
  /// Billed (reserved) bandwidth, bytes/s.
  [[nodiscard]] double reserved_bandwidth() const {
    return vm_scheduler_.reserved_bandwidth();
  }

  [[nodiscard]] double vm_cost_rate() const { return vm_scheduler_.cost_rate(); }
  [[nodiscard]] double storage_cost_rate() const { return nfs_scheduler_.cost_rate(); }

  [[nodiscard]] VmScheduler& vm_scheduler() noexcept { return vm_scheduler_; }
  [[nodiscard]] const VmScheduler& vm_scheduler() const noexcept { return vm_scheduler_; }
  [[nodiscard]] const RequestMonitor& request_monitor() const noexcept {
    return request_monitor_;
  }
  [[nodiscard]] const VmMonitor& vm_monitor() const noexcept { return vm_monitor_; }
  [[nodiscard]] CostMeter& billing() noexcept { return billing_; }
  [[nodiscard]] const CostMeter& billing() const noexcept { return billing_; }

  /// Renegotiate the SLA budget ceilings mid-run (timed scenario ops:
  /// a regional outage cuts them, recovery restores them). Plans already
  /// admitted keep running; the next submit_plan() faces the new terms.
  void set_budgets(double vm_budget_per_hour, double storage_budget_per_hour) {
    sla_.set_budgets(vm_budget_per_hour, storage_budget_per_hour);
  }

 private:
  sim::Simulator* sim_;
  SlaNegotiator sla_;
  VmScheduler vm_scheduler_;
  NfsScheduler nfs_scheduler_;
  RequestMonitor request_monitor_;
  VmMonitor vm_monitor_;
  CostMeter billing_;
};

}  // namespace cloudmedia::cloud
