// End-to-end tests of the full CloudMedia stack: workload -> swarms ->
// tracker -> controller -> cloud schedulers -> bandwidth pools. Scenarios
// are scaled down (few channels, minutes-scale runs) so the whole binary
// stays fast while still exercising every moving part.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "cloud/cloud_service.h"
#include "core/controller.h"
#include "expr/config.h"
#include "expr/runner.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "vod/cohort_system.h"
#include "vod/streaming_system.h"
#include "workload/scenario.h"

namespace cloudmedia {
namespace {

using core::StreamingMode;

/// A small, fast scenario: 3 channels, flat arrivals, ~110 concurrent users.
expr::ExperimentConfig small_config(StreamingMode mode) {
  expr::ExperimentConfig cfg = expr::ExperimentConfig::make_default(mode);
  cfg.workload.num_channels = 3;
  cfg.workload.total_arrival_rate = 0.08;
  cfg.workload.diurnal = workload::DiurnalPattern::flat();
  cfg.warmup_hours = 1.0;
  cfg.measure_hours = 3.0;
  cfg.seed = 7;
  return cfg;
}

// ----------------------------------------------------------- basic health

TEST(Integration, ClientServerRunsAndServesUsers) {
  const expr::ExperimentResult r =
      expr::ExperimentRunner::run(small_config(StreamingMode::kClientServer));
  EXPECT_GT(r.metrics.counters.arrivals, 200);
  EXPECT_GT(r.metrics.counters.departures, 100);
  EXPECT_GT(r.metrics.counters.chunk_downloads, 500);
  EXPECT_GT(r.mean_concurrent_users(), 20.0);
  EXPECT_EQ(r.plans_rejected, 0);
  EXPECT_FALSE(r.metrics.quality.empty());
  EXPECT_FALSE(r.metrics.reserved_mbps.empty());
}

TEST(Integration, QualityIsHighWhenProvisionedByTheModel) {
  const expr::ExperimentResult r =
      expr::ExperimentRunner::run(small_config(StreamingMode::kClientServer));
  EXPECT_GT(r.mean_quality(), 0.95);
}

TEST(Integration, ReservedCoversUsedInSteadyState) {
  const expr::ExperimentResult r =
      expr::ExperimentRunner::run(small_config(StreamingMode::kClientServer));
  EXPECT_GT(r.reserved_covers_used_fraction(), 0.9);
  EXPECT_GT(r.mean_reserved_mbps(), r.mean_used_cloud_mbps());
}

TEST(Integration, ClientServerNeverUsesPeers) {
  const expr::ExperimentResult r =
      expr::ExperimentRunner::run(small_config(StreamingMode::kClientServer));
  EXPECT_DOUBLE_EQ(r.mean_used_peer_mbps(), 0.0);
}

// ----------------------------------------------------------------- P2P

TEST(Integration, P2pOffloadsMostTrafficToPeers) {
  const expr::ExperimentResult r =
      expr::ExperimentRunner::run(small_config(StreamingMode::kP2p));
  EXPECT_GT(r.mean_used_peer_mbps(), r.mean_used_cloud_mbps());
  EXPECT_GT(r.mean_quality(), 0.9);
}

TEST(Integration, P2pReservesAndSpendsLessThanClientServer) {
  const expr::ExperimentResult cs =
      expr::ExperimentRunner::run(small_config(StreamingMode::kClientServer));
  const expr::ExperimentResult p2p =
      expr::ExperimentRunner::run(small_config(StreamingMode::kP2p));
  EXPECT_LT(p2p.mean_reserved_mbps(), cs.mean_reserved_mbps());
  EXPECT_LT(p2p.mean_vm_cost_rate(), cs.mean_vm_cost_rate());
  EXPECT_LT(p2p.vm_cost_total, cs.vm_cost_total);
}

TEST(Integration, IdenticalWorkloadAcrossModes) {
  // The same seed must produce the same user population regardless of the
  // serving mode (the cross-mode comparability guarantee).
  const expr::ExperimentResult cs =
      expr::ExperimentRunner::run(small_config(StreamingMode::kClientServer));
  const expr::ExperimentResult p2p =
      expr::ExperimentRunner::run(small_config(StreamingMode::kP2p));
  EXPECT_EQ(cs.metrics.counters.arrivals, p2p.metrics.counters.arrivals);
}

// ------------------------------------------------------------ determinism

TEST(Integration, SameSeedSameResults) {
  const expr::ExperimentConfig cfg = small_config(StreamingMode::kP2p);
  const expr::ExperimentResult a = expr::ExperimentRunner::run(cfg);
  const expr::ExperimentResult b = expr::ExperimentRunner::run(cfg);
  EXPECT_EQ(a.metrics.counters.arrivals, b.metrics.counters.arrivals);
  EXPECT_EQ(a.metrics.counters.chunk_downloads,
            b.metrics.counters.chunk_downloads);
  EXPECT_EQ(a.metrics.counters.late_downloads,
            b.metrics.counters.late_downloads);
  EXPECT_DOUBLE_EQ(a.vm_cost_total, b.vm_cost_total);
  ASSERT_EQ(a.metrics.quality.size(), b.metrics.quality.size());
  for (std::size_t i = 0; i < a.metrics.quality.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics.quality.value_at(i), b.metrics.quality.value_at(i));
  }
}

TEST(Integration, DifferentSeedsDiffer) {
  expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  const expr::ExperimentResult a = expr::ExperimentRunner::run(cfg);
  cfg.seed = 8;
  const expr::ExperimentResult b = expr::ExperimentRunner::run(cfg);
  EXPECT_NE(a.metrics.counters.arrivals, b.metrics.counters.arrivals);
}

// --------------------------------------------------- provisioning policies

TEST(Integration, StaticPeakProvisioningIsConstantAndAdequate) {
  expr::ExperimentConfig static_cfg = small_config(StreamingMode::kClientServer);
  static_cfg.strategy = expr::Strategy::kStatic;
  const expr::ExperimentResult fixed = expr::ExperimentRunner::run(static_cfg);
  // The defining property of peak provisioning: the reservation never moves.
  const util::TimeSeries& reserved = fixed.metrics.reserved_mbps;
  ASSERT_FALSE(reserved.empty());
  for (std::size_t i = 0; i < reserved.size(); ++i) {
    if (reserved.time_at(i) < 3600.0) continue;  // skip the boot-up hour
    EXPECT_NEAR(reserved.value_at(i), fixed.mean_reserved_mbps(),
                1e-6 * fixed.mean_reserved_mbps());
  }
  EXPECT_GT(fixed.mean_quality(), 0.95);
}

TEST(Integration, ClairvoyantMatchesModelOnFlatWorkload) {
  // With flat arrivals the oracle and the measurement-driven model should
  // provision nearly identically.
  const expr::ExperimentConfig model_cfg = small_config(StreamingMode::kClientServer);
  expr::ExperimentConfig oracle_cfg = model_cfg;
  oracle_cfg.strategy = expr::Strategy::kClairvoyant;
  const expr::ExperimentResult model = expr::ExperimentRunner::run(model_cfg);
  const expr::ExperimentResult oracle = expr::ExperimentRunner::run(oracle_cfg);
  EXPECT_NEAR(oracle.mean_reserved_mbps() / model.mean_reserved_mbps(), 1.0, 0.15);
  EXPECT_GT(oracle.mean_quality(), 0.95);
}

TEST(Integration, ReactiveProvisioningRecoversFromColdStart) {
  expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  cfg.strategy = expr::Strategy::kReactive;
  const expr::ExperimentResult r = expr::ExperimentRunner::run(cfg);
  // The t = 0 plan reads a prior with zero occupancy and zero served
  // bandwidth, so the reactive policy reserves nothing for hour 0.
  EXPECT_EQ(r.metrics.reserved_mbps.max_over(0.0, 3500.0), 0.0);
  // Hour 0 starves every arrival; the occupancy signal then pulls capacity
  // up and downloads flow. (Chasing served-bandwidth alone would deadlock
  // at zero forever — the cold-start pathology ReactivePolicy documents.)
  EXPECT_GT(r.mean_reserved_mbps(), 0.0);
  EXPECT_GT(r.metrics.counters.chunk_downloads, 0);
  // The stall shows up in quality relative to the model-driven run.
  const expr::ExperimentResult model =
      expr::ExperimentRunner::run(small_config(StreamingMode::kClientServer));
  EXPECT_LE(r.mean_quality(), model.mean_quality() + 1e-9);
}

// --------------------------------------------------- model-vs-system checks

TEST(Integration, OccupancyTracksLittlesLaw) {
  // In the flat steady state, per-channel concurrent users should be close
  // to Λ_c × E[session chunks] × T0 (Little's law through the chunk walk).
  const expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  const workload::Workload workload(cfg.workload, cfg.seed);
  const expr::ExperimentResult r = expr::ExperimentRunner::run(cfg);

  const double expected_chunks = workload.expected_session_chunks();
  for (int c = 0; c < cfg.workload.num_channels; ++c) {
    const double rate = workload.channel_rate(c, 0.0);
    const double expected_users = rate * expected_chunks * cfg.vod.chunk_duration;
    const double measured = r.metrics.channels[static_cast<std::size_t>(c)]
                                .size.mean_over(r.measure_start, r.measure_end);
    EXPECT_NEAR(measured / expected_users, 1.0, 0.25)
        << "channel " << c << ": measured " << measured << " vs expected "
        << expected_users;
  }
}

TEST(Integration, UsedBandwidthMatchesDemandScale) {
  // Users consume at most r on average (buffered replays only reduce it).
  const expr::ExperimentResult r =
      expr::ExperimentRunner::run(small_config(StreamingMode::kClientServer));
  const double users = r.mean_concurrent_users();
  const double demand_mbps = users * 0.4;  // r = 400 kbps
  EXPECT_LT(r.mean_used_cloud_mbps(), demand_mbps * 1.05);
  EXPECT_GT(r.mean_used_cloud_mbps(), demand_mbps * 0.5);
}

TEST(Integration, LateDownloadsAreRareUnderModelProvisioning) {
  const expr::ExperimentResult r =
      expr::ExperimentRunner::run(small_config(StreamingMode::kClientServer));
  EXPECT_LT(static_cast<double>(r.metrics.counters.late_downloads),
            0.05 * static_cast<double>(r.metrics.counters.chunk_downloads));
}

TEST(Integration, VmChurnHappensAcrossTheRun) {
  const expr::ExperimentResult r =
      expr::ExperimentRunner::run(small_config(StreamingMode::kClientServer));
  EXPECT_GT(r.vm_boots, 0);
  EXPECT_EQ(r.plans_submitted, 1 + 4);  // bootstrap + one per hour
}

// ------------------------------------------------------ direct system pokes

TEST(StreamingSystem, PopulationConservation) {
  sim::Simulator sim;
  expr::ExperimentConfig cfg = small_config(StreamingMode::kP2p);
  const workload::Workload workload(cfg.workload, 3);

  cloud::CloudConfig cloud_cfg;
  cloud_cfg.sla = cloud::SlaTerms{100.0, 1.0, cfg.vm_clusters, cfg.nfs_clusters};
  cloud_cfg.vm = cloud::VmSchedulerConfig{0.0, cfg.vod.vm_bandwidth};
  cloud::CloudService cloud(sim, cloud_cfg);

  core::ControllerConfig controller_cfg{cfg.vm_clusters, cfg.nfs_clusters,
                                        100.0, 1.0};
  core::DemandEstimatorConfig est;
  est.mode = StreamingMode::kP2p;
  auto controller = std::make_unique<core::Controller>(
      cfg.vod, controller_cfg,
      std::make_unique<core::ModelBasedPolicy>(cfg.vod, est));

  vod::StreamingOptions options;
  options.mode = StreamingMode::kP2p;
  vod::StreamingSystem system(sim, workload, cfg.vod, cloud,
                              std::move(controller), options);
  system.start();
  sim.run_until(2.5 * 3600.0);

  const vod::SystemCounters& counters = system.metrics().counters;
  EXPECT_EQ(counters.arrivals - counters.departures,
            static_cast<long>(system.current_users()));

  // Position counts sum to the number of users currently in the system.
  long positions = 0;
  for (int c = 0; c < cfg.workload.num_channels; ++c) {
    for (int i = 0; i < cfg.vod.chunks_per_video; ++i) {
      positions += system.position_count(c, i);
      EXPECT_GE(system.owner_count(c, i), 0);
    }
  }
  EXPECT_EQ(positions, static_cast<long>(system.current_users()));

  // Channel membership partitions the population.
  std::size_t members = 0;
  for (int c = 0; c < cfg.workload.num_channels; ++c) {
    members += system.channel_users(c);
  }
  EXPECT_EQ(members, system.current_users());
}

TEST(StreamingSystem, QualityBoundsAndPlanPresence) {
  for (const auto mode : {StreamingMode::kClientServer, StreamingMode::kP2p}) {
    SCOPED_TRACE(mode == StreamingMode::kP2p ? "p2p" : "client-server");
    sim::Simulator sim;
    expr::ExperimentConfig cfg = small_config(mode);
    const workload::Workload workload(cfg.workload, 5);

    cloud::CloudConfig cloud_cfg;
    cloud_cfg.sla =
        cloud::SlaTerms{100.0, 1.0, cfg.vm_clusters, cfg.nfs_clusters};
    cloud_cfg.vm = cloud::VmSchedulerConfig{25.0, cfg.vod.vm_bandwidth};
    cloud::CloudService cloud(sim, cloud_cfg);

    core::ControllerConfig controller_cfg{cfg.vm_clusters, cfg.nfs_clusters,
                                          100.0, 1.0};
    core::DemandEstimatorConfig est;
    est.mode = mode;
    auto controller = std::make_unique<core::Controller>(
        cfg.vod, controller_cfg,
        std::make_unique<core::ModelBasedPolicy>(cfg.vod, est));

    vod::StreamingOptions options;
    options.mode = mode;
    vod::StreamingSystem system(sim, workload, cfg.vod, cloud,
                                std::move(controller), options);
    system.start();
    sim.run_until(1.5 * 3600.0);

    // Past the first provisioning boundary, so a plan is held.
    EXPECT_NE(system.last_plan(), nullptr);
    const double q = system.system_quality_now();
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
    for (int c = 0; c < cfg.workload.num_channels; ++c) {
      const double cq = system.channel_quality_now(c);
      EXPECT_GE(cq, 0.0);
      EXPECT_LE(cq, 1.0);
    }
    EXPECT_THROW((void)system.channel_quality_now(-1), util::PreconditionError);
    EXPECT_THROW((void)system.channel_quality_now(cfg.workload.num_channels),
                 util::PreconditionError);
    EXPECT_GE(system.cloud_rate_now(), 0.0);
    if (mode == StreamingMode::kClientServer) {
      EXPECT_DOUBLE_EQ(system.peer_rate_now(), 0.0);
    }
  }
}

TEST(StreamingSystem, StartTwiceIsRejected) {
  sim::Simulator sim;
  expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  const workload::Workload workload(cfg.workload, 5);
  cloud::CloudConfig cloud_cfg;
  cloud_cfg.sla = cloud::SlaTerms{100.0, 1.0, cfg.vm_clusters, cfg.nfs_clusters};
  cloud_cfg.vm = cloud::VmSchedulerConfig{25.0, cfg.vod.vm_bandwidth};
  cloud::CloudService cloud(sim, cloud_cfg);
  auto controller = std::make_unique<core::Controller>(
      cfg.vod,
      core::ControllerConfig{cfg.vm_clusters, cfg.nfs_clusters, 100.0, 1.0},
      std::make_unique<core::ModelBasedPolicy>(cfg.vod,
                                               core::DemandEstimatorConfig{}));
  vod::StreamingSystem system(sim, workload, cfg.vod, cloud,
                              std::move(controller), vod::StreamingOptions{});
  system.start();
  EXPECT_THROW(system.start(), util::PreconditionError);
}

/// Wires `Engine` by hand against a cloud whose SLA budgets sit far below
/// the controller's, so the SLA rejects every plan the controller submits.
template <typename Engine, typename Options>
void expect_every_plan_rejected(const Options& options) {
  sim::Simulator sim;
  const expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  const workload::Workload workload(cfg.workload, cfg.seed);
  cloud::CloudConfig cloud_cfg;
  cloud_cfg.sla = cloud::SlaTerms{1e-6, 1e-6, cfg.vm_clusters, cfg.nfs_clusters};
  cloud_cfg.vm = cloud::VmSchedulerConfig{0.0, cfg.vod.vm_bandwidth};
  cloud::CloudService cloud(sim, cloud_cfg);
  auto controller = std::make_unique<core::Controller>(
      cfg.vod,
      core::ControllerConfig{cfg.vm_clusters, cfg.nfs_clusters,
                             cfg.vm_budget_per_hour, cfg.storage_budget_per_hour},
      std::make_unique<core::ModelBasedPolicy>(cfg.vod,
                                               core::DemandEstimatorConfig{}));
  Engine system(sim, workload, cfg.vod, cloud, std::move(controller), options);
  system.start();
  sim.run_until(3.5 * 3600.0);

  // The t = 0 bootstrap plus the harvests at 1 h, 2 h and 3 h.
  EXPECT_EQ(system.metrics().counters.rejected_plans, 4);
  EXPECT_EQ(cloud.request_monitor().log().size(), 4u);
  EXPECT_EQ(system.last_plan(), nullptr);
  EXPECT_TRUE(system.metrics().vm_cost_rate.empty());
}

TEST(Deployment, SlaRejectedPlansAreCountedAndNeverApplied) {
  {
    SCOPED_TRACE("discrete");
    expect_every_plan_rejected<vod::StreamingSystem>(vod::StreamingOptions{});
  }
  {
    SCOPED_TRACE("cohort");
    expect_every_plan_rejected<vod::CohortSystem>(vod::CohortOptions{});
  }
}

// ------------------------------------------------------------ expr helpers

TEST(Deployment, PlannerPassesSumEveryPlan) {
  // Each plan solves every system once per run of channels with a shared
  // P̂: at least once, at most once per channel.
  for (const StreamingMode mode : {StreamingMode::kP2p, StreamingMode::kClientServer}) {
    SCOPED_TRACE(mode == StreamingMode::kP2p ? "p2p" : "client-server");
    const expr::ExperimentConfig cfg = small_config(mode);
    const expr::ExperimentResult r = expr::ExperimentRunner::run(cfg);
    const auto systems = static_cast<std::uint64_t>(
        mode == StreamingMode::kP2p ? 1 + cfg.vod.chunks_per_video : 1);
    const auto plans = static_cast<std::uint64_t>(r.plans_submitted);
    ASSERT_GT(plans, 1u);
    EXPECT_EQ(r.planner_passes % systems, 0u);
    EXPECT_GE(r.planner_passes, plans * systems);
    EXPECT_LE(r.planner_passes,
              plans * systems *
                  static_cast<std::uint64_t>(cfg.workload.num_channels));
  }
}

TEST(ExperimentConfig, DefaultsAreValidAndPaperShaped) {
  const expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(StreamingMode::kClientServer);
  cfg.validate();
  EXPECT_EQ(cfg.workload.num_channels, 20);
  EXPECT_EQ(cfg.vm_clusters.size(), 3u);
  EXPECT_EQ(cfg.nfs_clusters.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.vm_budget_per_hour, 100.0);
  EXPECT_DOUBLE_EQ(cfg.storage_budget_per_hour, 1.0);
  EXPECT_DOUBLE_EQ(cfg.vm_boot_delay, 25.0);
  EXPECT_DOUBLE_EQ(cfg.total_duration(), (4.0 + 100.0) * 3600.0);
}

TEST(ExperimentConfig, ValidateCatchesInconsistency) {
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(StreamingMode::kClientServer);
  cfg.workload.chunks_per_video = 7;
  EXPECT_THROW(cfg.validate(), util::PreconditionError);
}

TEST(Strategy, Names) {
  EXPECT_EQ(expr::to_string(expr::Strategy::kModelBased), "model-based");
  EXPECT_EQ(expr::to_string(expr::Strategy::kReactive), "reactive");
  EXPECT_EQ(expr::to_string(expr::Strategy::kStatic), "static");
  EXPECT_EQ(expr::to_string(expr::Strategy::kClairvoyant), "clairvoyant");
}

}  // namespace
}  // namespace cloudmedia
