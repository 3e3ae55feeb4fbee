#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/clusters.h"
#include "core/controller.h"
#include "core/params.h"
#include "predict/forecaster.h"
#include "vod/streaming_system.h"
#include "workload/scenario.h"

namespace cloudmedia::expr {

/// Which provisioning policy drives the controller. kForecast is the
/// paper's model driven by a pluggable predictor (see predict/policy.h);
/// pick the predictor with ExperimentConfig::forecaster.
enum class Strategy {
  kModelBased,
  kReactive,
  kStatic,
  kClairvoyant,
  kSeasonal,
  kForecast,
};

/// Which simulation core executes the run.
///  - kDiscrete: every viewer is an individual Peer with its own heap
///    events — exact, and the default (all committed goldens use it).
///  - kCohort: statistically-identical viewers are batched into cohorts
///    with fluid pool demand — approximate, built for 10M-viewer scale.
///  - kAuto: pick per run — cohort when the estimated peak population
///    reaches `cohort_threshold`, the exact discrete path (bit-identical
///    to kDiscrete) below it.
enum class Engine {
  kDiscrete,
  kCohort,
  kAuto,
};

struct ExperimentConfig;

/// One scheduled mid-run config mutation — the runtime form of a scenario
/// op carrying an `@fire-time` suffix (sweep::ScenarioOp::fire_time). The
/// experiment loop applies pending ops, sorted by fire time, at the first
/// controller-interval boundary >= fire_time, then re-propagates the
/// mutated config into the live system (workload shape, budgets, SLA).
///
/// `apply(live, baseline)` mutates the running config in place; `baseline`
/// is a snapshot taken before any timeline op fired, so ops like the
/// `recovery` primitive can restore pre-outage values. Timed ops never
/// enter ParamGrid::workload_hash / SweepRunner::run_seed, so a timeline
/// replays the byte-identical viewer population at any thread count.
struct TimedConfigOp {
  double fire_time = 0.0;   ///< seconds of simulated time; must be > 0
  std::string name;         ///< the scenario op's name, for errors and logs
  std::function<void(ExperimentConfig& live, const ExperimentConfig& baseline)>
      apply;
};

/// A complete experiment: workload, VoD model, cloud menu, controller
/// policy, and schedule. Defaults reproduce the paper's Sec. VI-A setup;
/// see README "Modelling choices" for the two calibrations (population
/// scaled to Table II's actual VM capacity; peer-uplink mean expressed as
/// a ratio of r).
struct ExperimentConfig {
  core::VodParameters vod;                    ///< r, T0, J, R (paper values)
  workload::WorkloadConfig workload;          ///< set up in make_default()
  std::vector<core::VmClusterSpec> vm_clusters = core::paper_vm_clusters();
  std::vector<core::NfsClusterSpec> nfs_clusters = core::paper_nfs_clusters();
  double vm_budget_per_hour = 100.0;          ///< B_M
  double storage_budget_per_hour = 1.0;       ///< B_S

  core::StreamingMode mode = core::StreamingMode::kClientServer;
  core::CapacityModel capacity_model = core::CapacityModel::kChannelPooled;
  bool occupancy_floor = true;
  core::P2pOptions p2p;                       ///< Eqn.-(5) cap variant
  Strategy strategy = Strategy::kModelBased;
  /// Strategy::kReactive provisions this multiple of the measured load.
  static constexpr double reactive_margin = 1.2;
  predict::ForecasterKind forecaster =
      predict::ForecasterKind::kPersistence;  ///< for Strategy::kForecast

  double vm_boot_delay = 25.0;                ///< Sec. VI-C measurement
  vod::StreamingOptions streaming;            ///< mode is overridden by `mode`

  double warmup_hours = 4.0;                  ///< excluded from summaries
  double measure_hours = 100.0;               ///< the paper's Fig.-4/5 window
  std::uint64_t seed = 42;

  /// Simulation core selection (structural: frozen at t=0, never on the
  /// timeline). kDiscrete by default so every committed golden replays
  /// byte-identically; kAuto routes to the cohort core only when
  /// `estimated_peak_users(config) >= cohort_threshold`.
  Engine engine = Engine::kDiscrete;
  static constexpr double cohort_threshold = 250'000.0;  ///< viewers
  /// Seconds of arrivals the cohort engine batches into one cohort.
  static constexpr double cohort_window = 300.0;

  /// Scheduled mid-run mutations, filled by Scenario::apply from ops with
  /// an `@fire-time` suffix (e.g. "regional_outage@6h+recovery@18h"). The
  /// runner sorts by fire time and applies each at the first provisioning-
  /// interval boundary >= its fire time; ops past total_duration() never
  /// fire. Structural fields (mode, strategy, catalog size, cluster menus,
  /// seed, horizons) are frozen at t=0 — a timeline op that touches one is
  /// rejected before the simulation starts.
  std::vector<TimedConfigOp> timeline;

  /// Paper-default configuration for the given mode.
  [[nodiscard]] static ExperimentConfig make_default(core::StreamingMode mode);

  [[nodiscard]] double total_duration() const noexcept {
    return (warmup_hours + measure_hours) * 3600.0;
  }
  [[nodiscard]] double measure_start() const noexcept {
    return warmup_hours * 3600.0;
  }

  void validate() const;
};

}  // namespace cloudmedia::expr
