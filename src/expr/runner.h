#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/cloud_service.h"
#include "expr/config.h"
#include "sim/simulator.h"
#include "vod/cohort_system.h"
#include "vod/deployment.h"
#include "vod/streaming_system.h"
#include "workload/scenario.h"

namespace cloudmedia::expr {

/// Everything a figure bench needs after one run.
struct ExperimentResult {
  vod::SystemMetrics metrics;
  double measure_start = 0.0;   ///< seconds; warmup boundary
  double measure_end = 0.0;     ///< seconds
  double vm_cost_total = 0.0;       ///< $ accrued over the whole run
  double storage_cost_total = 0.0;  ///< $
  long plans_submitted = 0;
  long plans_rejected = 0;
  long vm_boots = 0;
  long vm_shutdowns = 0;
  std::uint64_t sim_events = 0;     ///< discrete events the run processed
  /// Viewers still in the system when the horizon hit. The conservation
  /// invariant (tool_fuzz) checks arrivals == departures + final_users:
  /// exact for the discrete engine; the cohort engine rounds its fluid
  /// mass, so the checker allows it one viewer of slack per cohort.
  long final_users = 0;
  bool used_cohort_engine = false;  ///< which core the engine knob picked
  vod::RebalanceCounters rebalance;  ///< discrete engine only (zero on cohort)
  vod::CohortCounters cohort;        ///< cohort engine only (zero on discrete)
  std::uint64_t planner_passes = 0;  ///< every plan's LU solves (both engines)

  // --- summaries over the measurement window ----------------------------
  [[nodiscard]] double mean_quality() const;
  [[nodiscard]] double mean_reserved_mbps() const;
  [[nodiscard]] double mean_used_cloud_mbps() const;
  [[nodiscard]] double mean_used_peer_mbps() const;
  [[nodiscard]] double mean_vm_cost_rate() const;      ///< $/h
  [[nodiscard]] double mean_storage_cost_rate() const; ///< $/h
  [[nodiscard]] double mean_concurrent_users() const;
  /// Fraction of bandwidth samples where reserved >= used (prediction
  /// sufficiency, the Fig.-4 claim).
  [[nodiscard]] double reserved_covers_used_fraction() const;
  /// Late chunk downloads over all chunk downloads in the whole run (0
  /// with none).
  [[nodiscard]] double late_share() const;
};

/// Dry-run config.timeline against a scratch copy without simulating:
/// throws the runner's teaching PreconditionError when a timed op touches
/// a frozen field (mode, engine, channel count, the horizon, ...) or
/// leaves an invalid workload behind. The same check ExperimentRunner::run
/// performs before t=0, exposed so profile validation can reject a bad
/// timeline at load time instead of mid-sweep on a worker thread.
void validate_timeline(const ExperimentConfig& config);

/// Closed-form peak-population estimate: Σ_c channel_max_rate(c) ×
/// expected session length. The `auto` engine compares this against
/// ExperimentConfig::cohort_threshold to pick a simulation core before the
/// run starts (no RNG draws — the discrete path stays bit-identical).
[[nodiscard]] double estimated_peak_users(const ExperimentConfig& config);

/// One experiment, built and ready to step. The constructor validates the
/// config, wires the simulator, workload, SLA'd cloud, controller and the
/// engine the config picks, schedules the timeline, and starts the
/// deployment; run_until() then advances simulated time and result()
/// summarises the run so far. Deterministic in config.seed.
class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);
  // Scheduled events hold the experiment's address.
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;
  Experiment(Experiment&&) = delete;
  Experiment& operator=(Experiment&&) = delete;

  void run_until(double t) { simulator_.run_until(t); }
  [[nodiscard]] ExperimentResult result() const;

  [[nodiscard]] const sim::Simulator& simulator() const noexcept { return simulator_; }
  [[nodiscard]] const vod::Deployment& deployment() const noexcept {
    return *deployment_;
  }

 private:
  // `live_` is the config the running system reads; timed ops mutate it at
  // their boundary. `baseline_` is the pre-timeline snapshot handed to
  // baseline-aware ops (the recovery primitive restores values from it).
  ExperimentConfig live_;
  ExperimentConfig baseline_;
  sim::Simulator simulator_;
  workload::Workload workload_;
  cloud::CloudService cloud_;
  std::unique_ptr<vod::Deployment> deployment_;
};

/// Build + run one experiment end to end. Deterministic in config.seed.
class ExperimentRunner {
 public:
  [[nodiscard]] static ExperimentResult run(const ExperimentConfig& config);
};

}  // namespace cloudmedia::expr
