#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/demand.h"
#include "core/storage_rental.h"
#include "core/vm_allocation.h"

namespace cloudmedia::core {

/// Everything the tracker hands to the controller at the end of one
/// provisioning interval (Sec. V-B, Fig. 3).
struct TrackerReport {
  double interval_start = 0.0;   ///< seconds
  double interval_length = 0.0;  ///< T; paper uses 1 hour
  std::vector<ChannelObservation> channels;
};

/// Per-chunk cloud bandwidth demands, indexed [channel][chunk] (bytes/s),
/// plus (for model-based policies) the full Sec.-IV diagnostics.
struct DemandSet {
  std::vector<std::vector<double>> cloud_demand;
  std::vector<ChannelDemandEstimate> estimates;  ///< empty for baselines
  /// Multi-column LU solves the estimate made (an observer tally: no RNG,
  /// no events); zero for the baselines that run no queueing model.
  std::uint64_t substitution_passes = 0;
};

/// Strategy that converts tracker measurements into next-interval cloud
/// bandwidth demand. The paper's algorithm is ModelBasedPolicy; the others
/// are baselines for the ablation benches.
class DemandPolicy {
 public:
  virtual ~DemandPolicy() = default;
  [[nodiscard]] virtual DemandSet estimate(const TrackerReport& report) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// The Sec.-IV loop under every model-driven policy: each channel's
/// observation runs through `estimator` with its measured viewing patterns
/// P̂ at the arrival rate `rate(channel, measured Λ̂)` — the policy's
/// prediction for the next interval. `rate` is called once per channel, in
/// ascending channel order. Observations are read in place, and a run of
/// consecutive channels whose P̂ is bitwise the same is factored once and
/// solved as one batch (one multi-column pass per system), so the result
/// equals per-channel estimates.
[[nodiscard]] DemandSet estimate_channels(
    const DemandEstimator& estimator, const TrackerReport& report,
    const std::function<double(std::size_t, double)>& rate);

/// The paper's policy: queueing-model demand from measured Λ̂ and P̂.
class ModelBasedPolicy final : public DemandPolicy {
 public:
  ModelBasedPolicy(VodParameters params, DemandEstimatorConfig config);
  [[nodiscard]] DemandSet estimate(const TrackerReport& report) override;
  [[nodiscard]] std::string name() const override { return "model-based"; }

 private:
  DemandEstimator estimator_;
};

/// Baseline: next interval = margin × last interval's observed load, where
/// observed load per chunk is max(measured cloud usage, occupancy · r) —
/// the two signals a usage-chasing autoscaler actually has. No queueing
/// model, no viewing-pattern analysis, no arrival prediction.
class ReactivePolicy final : public DemandPolicy {
 public:
  ReactivePolicy(VodParameters params, double margin);
  [[nodiscard]] DemandSet estimate(const TrackerReport& report) override;
  [[nodiscard]] std::string name() const override { return "reactive"; }

 private:
  VodParameters params_;
  double margin_;
};

/// Baseline: a fixed demand vector forever (peak provisioning).
class StaticPolicy final : public DemandPolicy {
 public:
  explicit StaticPolicy(std::vector<std::vector<double>> cloud_demand);
  [[nodiscard]] DemandSet estimate(const TrackerReport& report) override;
  [[nodiscard]] std::string name() const override { return "static"; }

 private:
  std::vector<std::vector<double>> demand_;
};

/// Extension beyond the paper — its own stated future work (Sec. V-B:
/// "more accurate prediction method based on historical data collected
/// over more intervals"). Predicts the next interval's arrival rate as a
/// blend of persistence (last interval, the paper's predictor) and a
/// seasonal estimate: an EWMA over previous days of the measured rate in
/// the same time-of-day slot. With a diurnal workload this anticipates the
/// flash crowds instead of trailing them by one interval.
class SeasonalPolicy final : public DemandPolicy {
 public:
  /// Seasonality period (one day), weight on the seasonal estimate vs
  /// persistence once history exists, and day-over-day smoothing factor.
  static constexpr double kPeriod = 86'400.0;
  static constexpr double kBlend = 0.7;
  static constexpr double kEwma = 0.4;

  SeasonalPolicy(VodParameters params, DemandEstimatorConfig config);
  [[nodiscard]] DemandSet estimate(const TrackerReport& report) override;
  [[nodiscard]] std::string name() const override { return "seasonal"; }

 private:
  DemandEstimator estimator_;
  int slots_ = 0;
  /// [channel][slot] EWMA of measured rates; -1 marks "never observed".
  std::vector<std::vector<double>> history_;
};

/// Baseline: the paper's model fed with the *true* mean arrival rate of the
/// upcoming interval (an oracle for the prediction error ablation).
class ClairvoyantPolicy final : public DemandPolicy {
 public:
  /// `future_rate(channel, t0, t1)` returns the true mean external arrival
  /// rate of `channel` over [t0, t1).
  ClairvoyantPolicy(VodParameters params, DemandEstimatorConfig config,
                    std::function<double(int, double, double)> future_rate);
  [[nodiscard]] DemandSet estimate(const TrackerReport& report) override;
  [[nodiscard]] std::string name() const override { return "clairvoyant"; }

 private:
  DemandEstimator estimator_;
  std::function<double(int, double, double)> future_rate_;
};

/// The provisioning plan sent to the cloud through the broker: the answer
/// to "how many VMs from which virtual cluster, and which NFS cluster
/// stores which chunk" for the next interval.
struct ProvisioningPlan {
  DemandSet demand;
  StorageProblem storage_problem;
  StorageAssignment storage;
  VmProblem vm_problem;
  VmAllocation vm;
  InstancePlan instances;
  /// Realized per-chunk cloud bandwidth Σ_v z_iv · R, [channel][chunk].
  std::vector<std::vector<double>> chunk_cloud_bandwidth;
  double reserved_bandwidth = 0.0;   ///< Σ chunk_cloud_bandwidth, bytes/s
  double vm_cost_rate = 0.0;         ///< $/h for integer VM instances
  double storage_cost_rate = 0.0;    ///< $/h for assigned chunks
};

struct ControllerConfig {
  std::vector<VmClusterSpec> vm_clusters;
  std::vector<NfsClusterSpec> nfs_clusters;
  double vm_budget_per_hour = 100.0;      ///< B_M (paper Sec. VI-A)
  double storage_budget_per_hour = 1.0;   ///< B_S (paper Sec. VI-A)

  void validate() const;
};

/// The dynamic cloud provisioning controller of Sec. V-B: each interval,
/// turn tracker statistics into demand (policy), then solve the storage
/// rental and VM configuration problems and emit the plan.
class Controller {
 public:
  Controller(VodParameters params, ControllerConfig config,
             std::unique_ptr<DemandPolicy> policy);

  [[nodiscard]] ProvisioningPlan plan(const TrackerReport& report) const;

  /// Renegotiate the budget ceilings mid-run (the timed-scenario hook:
  /// regional_outage@6h cuts them, recovery@18h restores them). Takes
  /// effect from the next plan() — the controller re-reads its config
  /// every interval, exactly the Sec. V-B adaptivity loop.
  void set_budgets(double vm_budget_per_hour, double storage_budget_per_hour);

  [[nodiscard]] const ControllerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const VodParameters& params() const noexcept { return params_; }
  [[nodiscard]] const DemandPolicy& policy() const noexcept { return *policy_; }

 private:
  VodParameters params_;
  ControllerConfig config_;
  std::unique_ptr<DemandPolicy> policy_;
};

}  // namespace cloudmedia::core
