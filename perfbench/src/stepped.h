#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "expr/runner.h"
#include "tracing.h"
#include "workload/scenario.h"

namespace perfbench {

/// The simulated steps a traced run advances Simulator::run_until by: p90
/// of 120 step timings leaves 12 samples beyond it.
inline constexpr int kTraceSteps = 120;

/// What the traced run measures at the layer boundaries of one stepped run.
struct SteppedLayers {
  double build_ms = 0.0;        ///< construction, up to start()
  double start_ms = 0.0;        ///< the system's start()
  std::vector<double> step_ms;  ///< host time of each run_until step
  double run_ms = 0.0;          ///< start() and all steps
  double estimate_ms = 0.0;     ///< in-place DemandPolicy::estimate time
  std::size_t pending_peak = 0; ///< Simulator::pending at step boundaries
  std::size_t ring_slots = 0;   ///< Simulator::callback_ring_capacity
  double peak_cohorts = 0.0;    ///< CohortSystem::live_cohorts (0 discrete)
  double peak_pool_jobs = 0.0;  ///< Σ pool active + fluid jobs
  /// Every report the controller planned from, bootstrap first.
  std::vector<cloudmedia::core::TrackerReport> reports;
};

struct SteppedRun {
  /// Filled exactly as ExperimentRunner::run fills it.
  cloudmedia::expr::ExperimentResult result;
  SteppedLayers layers;
};

/// Build the system ExperimentRunner::run builds for `config` — the same
/// public constructors (Workload, CloudService, Controller,
/// StreamingSystem/CohortSystem) in the same order, the same timeline
/// scheduling — with the demand policy wrapped in a timing decorator, and
/// advance it in kTraceSteps equal simulated steps. Spans go to `trace`
/// under `parent`.
[[nodiscard]] SteppedRun run_stepped(const cloudmedia::expr::ExperimentConfig& config,
                                     Trace& trace, long parent);

/// The demand policy ExperimentRunner::run hands its controller for
/// `config` (its private make_policy, rebuilt from public constructors).
[[nodiscard]] std::unique_ptr<cloudmedia::core::DemandPolicy> make_policy(
    const cloudmedia::expr::ExperimentConfig& config,
    const cloudmedia::workload::Workload& workload);

/// Empty when the stepped result equals the runner's on everything the
/// two share (arrivals, departures, final users, events, VM and storage
/// cost, plans, boots, mean quality); otherwise names the first mismatch.
[[nodiscard]] std::string fidelity_mismatch(
    const cloudmedia::expr::ExperimentResult& stepped,
    const cloudmedia::expr::ExperimentResult& reference);

/// Host time of the captured reports replayed through a fresh controller
/// (Controller::plan), and of each plan's storage rental
/// (solve_storage_greedy) and VM allocation (solve_vm_greedy +
/// pack_instances) solved again on their own.
struct ControllerReplay {
  std::vector<double> plan_ms;
  double storage_ms = 0.0;
  double vm_ms = 0.0;
};
[[nodiscard]] ControllerReplay replay_controller(
    const cloudmedia::expr::ExperimentConfig& config,
    const std::vector<cloudmedia::core::TrackerReport>& reports, Trace& trace,
    long parent);

/// Draw every channel's arrivals over the run's horizon on the run's seed,
/// the way the run's engine draws them: the per-viewer stream of
/// Workload::make_arrivals on the discrete engine, one Poisson count per
/// channel-window (Workload::make_cohort_arrivals) on the cohort engine.
/// Returns the host milliseconds.
double draw_arrivals(const cloudmedia::expr::ExperimentConfig& config, Trace& trace,
                     long parent);

}  // namespace perfbench
