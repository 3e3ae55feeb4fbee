#pragma once

#include <string>
#include <vector>

#include "core/controller.h"

namespace cloudmedia::cloud {

/// The negotiated Service Level Agreement between the VoD provider and the
/// cloud (Sec. III-A): budget ceilings and the cluster menus with prices.
struct SlaTerms {
  double vm_budget_per_hour = 100.0;
  double storage_budget_per_hour = 1.0;
  std::vector<core::VmClusterSpec> vm_clusters;
  std::vector<core::NfsClusterSpec> nfs_clusters;
};

/// SLA Negotiator (Fig. 1): validates a submitted plan against the agreed
/// terms before the schedulers act on it.
class SlaNegotiator {
 public:
  explicit SlaNegotiator(SlaTerms terms);

  /// Returns true if the plan honours the SLA; otherwise false with a
  /// reason. A plan flagged infeasible by the consumer's own optimizers is
  /// still admitted (it simply provisions what the budget allows); billing
  /// above the agreed budget is not.
  [[nodiscard]] bool admit(const core::ProvisioningPlan& plan,
                           std::string* reason) const;

  /// Renegotiate the budget ceilings (the cluster menus are fixed for the
  /// life of the agreement). Timed scenario ops route through here so a
  /// mid-run budget cut binds billing, not just the consumer's optimizer.
  void set_budgets(double vm_budget_per_hour, double storage_budget_per_hour);

 private:
  SlaTerms terms_;
};

/// Request Monitor (Fig. 1): logs every consumer request and its outcome.
class RequestMonitor {
 public:
  struct Entry {
    double time = 0.0;
    bool admitted = false;
    std::string reason;
    double vm_cost_rate = 0.0;
    double storage_cost_rate = 0.0;
    double reserved_bandwidth = 0.0;
  };

  void record(Entry entry) { log_.push_back(std::move(entry)); }
  [[nodiscard]] const std::vector<Entry>& log() const noexcept { return log_; }

 private:
  std::vector<Entry> log_;
};

/// VM Monitor (Fig. 1): tracks provisioning activity per virtual cluster.
class VmMonitor {
 public:
  explicit VmMonitor(std::size_t num_clusters)
      : boots_(num_clusters, 0), shutdowns_(num_clusters, 0) {}

  void on_scale(std::size_t cluster, int delta);
  [[nodiscard]] long boots(std::size_t cluster) const;
  [[nodiscard]] long shutdowns(std::size_t cluster) const;
  [[nodiscard]] long total_boots() const;
  [[nodiscard]] long total_shutdowns() const;

 private:
  std::vector<long> boots_;
  std::vector<long> shutdowns_;
};

}  // namespace cloudmedia::cloud
