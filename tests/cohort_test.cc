// The cohort/fluid engine's correctness surface: the bulk event scheduler,
// the batched Poisson arrivals, the engine knob, discrete/auto equivalence
// at small N (the `auto` routing guarantee every committed golden relies
// on), cohort-engine determinism, and mass conservation in a forced-cohort
// run.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cloud/cloud_service.h"
#include "core/controller.h"
#include "expr/config.h"
#include "expr/runner.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"
#include "vod/cohort_system.h"
#include "workload/cohort.h"
#include "workload/scenario.h"

namespace cloudmedia {
namespace {

using core::StreamingMode;

// ------------------------------------------------- Simulator::schedule_bulk

TEST(ScheduleBulk, MatchesLoopOfScheduleAt) {
  // Bulk scheduling is a throughput optimization only: firing order must be
  // exactly what the same (time, callback) list gets from schedule_at —
  // including FIFO order among equal times.
  const std::vector<double> times{5.0, 1.0, 3.0, 1.0, 3.0, 1.0, 2.0};

  std::vector<int> loop_order;
  sim::Simulator loop_sim;
  for (std::size_t i = 0; i < times.size(); ++i) {
    loop_sim.schedule_at(times[i],
                         [&loop_order, i] { loop_order.push_back(static_cast<int>(i)); });
  }
  loop_sim.run_all();

  std::vector<int> bulk_order;
  sim::Simulator bulk_sim;
  std::vector<std::pair<double, sim::Simulator::Callback>> batch;
  for (std::size_t i = 0; i < times.size(); ++i) {
    batch.emplace_back(times[i], [&bulk_order, i] {
      bulk_order.push_back(static_cast<int>(i));
    });
  }
  (void)bulk_sim.schedule_bulk(std::move(batch));
  bulk_sim.run_all();

  EXPECT_EQ(bulk_order, loop_order);
}

TEST(ScheduleBulk, EmptyBatchReturnsNoIds) {
  sim::Simulator sim;
  EXPECT_TRUE(sim.schedule_bulk({}).empty());
  EXPECT_EQ(sim.run_all(), 0u);
}

TEST(ScheduleBulk, ReturnsCancellableIdsInBatchOrder) {
  // Recycle slots first, so the batch lands on reused slots rather than
  // fresh ones: the returned ids are the only handle on each entry.
  sim::Simulator sim;
  for (int i = 0; i < 4; ++i) sim.schedule_at(0.5, [] {});
  sim.run_all();

  std::vector<int> fired;
  std::vector<std::pair<double, sim::Simulator::Callback>> batch;
  for (int i = 0; i < 3; ++i) {
    batch.emplace_back(1.0 + i, [&fired, i] { fired.push_back(i); });
  }
  const std::vector<sim::EventId> ids = sim.schedule_bulk(std::move(batch));
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_TRUE(sim.cancel(ids[1]));
  EXPECT_FALSE(sim.cancel(ids[1]));  // already cancelled
  EXPECT_EQ(sim.pending(), 2u);
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
}

TEST(ScheduleBulk, LargeBatchOnSmallHeapHeapifies) {
  // A batch larger than a quarter of the existing heap takes the
  // heapify branch; order must still come out fully sorted, and the heap
  // positions it rebuilds must still let cancel find each entry.
  sim::Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(500.0, [&fired] { fired.push_back(-1); });
  std::vector<std::pair<double, sim::Simulator::Callback>> batch;
  for (int i = 63; i >= 0; --i) {  // reverse-time order in the batch
    batch.emplace_back(static_cast<double>(i), [&fired, i] { fired.push_back(i); });
  }
  const std::vector<sim::EventId> ids = sim.schedule_bulk(std::move(batch));
  ASSERT_EQ(ids.size(), 64u);
  EXPECT_TRUE(sim.cancel(ids[63 - 10]));  // the entry firing at t = 10
  sim.run_all();
  std::vector<int> expected;
  for (int i = 0; i < 64; ++i) {
    if (i != 10) expected.push_back(i);
  }
  expected.push_back(-1);
  EXPECT_EQ(fired, expected);
}

// ------------------------------------------------------------ sample_poisson

TEST(SamplePoisson, ZeroMeanIsZeroAndNegativeMeanThrows) {
  util::Rng rng(1);
  EXPECT_EQ(workload::sample_poisson(rng, 0.0), 0);
  EXPECT_THROW((void)workload::sample_poisson(rng, -3.0),
               util::PreconditionError);
}

TEST(SamplePoisson, SmallMeanMatchesExpectation) {
  util::Rng rng(42);
  const double mean = 4.0;
  const int n = 4000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const long long k = workload::sample_poisson(rng, mean);
    ASSERT_GE(k, 0);
    sum += static_cast<double>(k);
  }
  // Std error of the sample mean is sqrt(4/4000) ~ 0.032; 6 sigma bound.
  EXPECT_NEAR(sum / n, mean, 0.2);
}

TEST(SamplePoisson, LargeMeanUsesNormalBranch) {
  util::Rng rng(7);
  const double mean = 1e6;
  for (int i = 0; i < 16; ++i) {
    const long long k = workload::sample_poisson(rng, mean);
    EXPECT_NEAR(static_cast<double>(k), mean, 6.0 * std::sqrt(mean));
  }
}

TEST(SamplePoisson, DeterministicForEqualSeeds) {
  util::Rng a(99);
  util::Rng b(99);
  for (const double mean : {0.3, 7.0, 63.9, 64.1, 5000.0}) {
    EXPECT_EQ(workload::sample_poisson(a, mean),
              workload::sample_poisson(b, mean));
  }
}

// ------------------------------------------------------------ CohortArrivals

TEST(CohortArrivals, WindowMeanIntegratesFlatRate) {
  workload::CohortArrivals arrivals([](double) { return 2.0; }, 300.0,
                                    util::Rng(1));
  EXPECT_NEAR(arrivals.window_mean(0.0), 600.0, 1e-9);
  EXPECT_NEAR(arrivals.window_mean(7200.0), 600.0, 1e-9);
  EXPECT_DOUBLE_EQ(arrivals.window(), 300.0);
}

TEST(CohortArrivals, CountStreamIsDeterministic) {
  const auto rate = [](double t) { return t < 600.0 ? 1.0 : 3.0; };
  workload::CohortArrivals a(rate, 300.0, util::Rng(5));
  workload::CohortArrivals b(rate, 300.0, util::Rng(5));
  for (int w = 0; w < 8; ++w) {
    const double t = 300.0 * w;
    EXPECT_EQ(a.sample_count(t), b.sample_count(t)) << "window " << w;
  }
}

// --------------------------------------------------------------- the knob

TEST(EngineKnob, ParsesAndPrints) {
  EXPECT_EQ(expr::engine_from_string("discrete"), expr::Engine::kDiscrete);
  EXPECT_EQ(expr::engine_from_string("cohort"), expr::Engine::kCohort);
  EXPECT_EQ(expr::engine_from_string("auto"), expr::Engine::kAuto);
  EXPECT_EQ(expr::to_string(expr::Engine::kCohort), "cohort");
  EXPECT_EQ(expr::engine_from_string(expr::to_string(expr::Engine::kAuto)),
            expr::Engine::kAuto);
  EXPECT_THROW(expr::engine_from_string("hybrid"), util::PreconditionError);
}

TEST(EngineKnob, EstimatedPeakScalesLinearlyWithArrivalRate) {
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(StreamingMode::kClientServer);
  cfg.workload.total_arrival_rate = 1.0;
  const double per_unit = expr::estimated_peak_users(cfg);
  EXPECT_GT(per_unit, 0.0);
  cfg.workload.total_arrival_rate = 10.0;
  EXPECT_NEAR(expr::estimated_peak_users(cfg), 10.0 * per_unit,
              1e-9 * per_unit);
}

// ----------------------------------------------------- engine equivalence

expr::ExperimentConfig small_config(StreamingMode mode) {
  expr::ExperimentConfig cfg = expr::ExperimentConfig::make_default(mode);
  cfg.workload.num_channels = 3;
  cfg.workload.total_arrival_rate = 0.08;
  cfg.workload.diurnal = workload::DiurnalPattern::flat();
  cfg.warmup_hours = 0.5;
  cfg.measure_hours = 2.0;
  cfg.seed = 7;
  return cfg;
}

void expect_identical_results(const expr::ExperimentResult& a,
                              const expr::ExperimentResult& b) {
  EXPECT_EQ(a.metrics.counters.arrivals, b.metrics.counters.arrivals);
  EXPECT_EQ(a.metrics.counters.departures, b.metrics.counters.departures);
  EXPECT_EQ(a.metrics.counters.chunk_downloads,
            b.metrics.counters.chunk_downloads);
  EXPECT_EQ(a.metrics.counters.late_downloads,
            b.metrics.counters.late_downloads);
  EXPECT_EQ(a.metrics.counters.buffered_replays,
            b.metrics.counters.buffered_replays);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_DOUBLE_EQ(a.vm_cost_total, b.vm_cost_total);
  EXPECT_DOUBLE_EQ(a.storage_cost_total, b.storage_cost_total);
  ASSERT_EQ(a.metrics.quality.size(), b.metrics.quality.size());
  for (std::size_t i = 0; i < a.metrics.quality.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics.quality.value_at(i),
                     b.metrics.quality.value_at(i));
  }
  ASSERT_EQ(a.metrics.reserved_mbps.size(), b.metrics.reserved_mbps.size());
  for (std::size_t i = 0; i < a.metrics.reserved_mbps.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics.reserved_mbps.value_at(i),
                     b.metrics.reserved_mbps.value_at(i));
  }
  ASSERT_EQ(a.metrics.concurrent_users.size(),
            b.metrics.concurrent_users.size());
  for (std::size_t i = 0; i < a.metrics.concurrent_users.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics.concurrent_users.value_at(i),
                     b.metrics.concurrent_users.value_at(i));
  }
}

TEST(CohortEquivalence, AutoRoutesToDiscreteBelowThreshold) {
  // The guarantee every committed golden rides on: below the population
  // threshold, engine=auto replays the discrete engine bit for bit.
  expr::ExperimentConfig cfg = small_config(StreamingMode::kP2p);
  cfg.engine = expr::Engine::kDiscrete;
  const expr::ExperimentResult discrete = expr::ExperimentRunner::run(cfg);
  cfg.engine = expr::Engine::kAuto;  // ~110 peak users << 250k threshold
  const expr::ExperimentResult routed = expr::ExperimentRunner::run(cfg);
  expect_identical_results(discrete, routed);
}

TEST(CohortEquivalence, ThresholdZeroRoutesAutoToCohort) {
  expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  cfg.engine = expr::Engine::kDiscrete;
  const expr::ExperimentResult discrete = expr::ExperimentRunner::run(cfg);
  cfg.engine = expr::Engine::kAuto;
  cfg.cohort_threshold = 1.0;  // any population routes to the cohort core
  const expr::ExperimentResult cohort = expr::ExperimentRunner::run(cfg);
  // A different core: far fewer heap events, but a live population and a
  // full metrics surface.
  EXPECT_LT(cohort.sim_events, discrete.sim_events);
  EXPECT_GT(cohort.metrics.counters.arrivals, 0);
  EXPECT_FALSE(cohort.metrics.quality.empty());
  EXPECT_FALSE(cohort.metrics.reserved_mbps.empty());
}

TEST(CohortEquivalence, CohortTracksDiscretePopulationScale) {
  // The fluid approximation must agree with the exact engine on the
  // *scale* of the run: same arrival process mean, similar concurrency.
  expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  cfg.engine = expr::Engine::kDiscrete;
  const expr::ExperimentResult discrete = expr::ExperimentRunner::run(cfg);
  cfg.engine = expr::Engine::kCohort;
  const expr::ExperimentResult cohort = expr::ExperimentRunner::run(cfg);

  const auto da = static_cast<double>(discrete.metrics.counters.arrivals);
  const auto ca = static_cast<double>(cohort.metrics.counters.arrivals);
  EXPECT_GT(ca, 0.0);
  EXPECT_NEAR(ca, da, 0.25 * da);  // both Poisson around the same mean
  EXPECT_NEAR(cohort.mean_concurrent_users(), discrete.mean_concurrent_users(),
              0.35 * discrete.mean_concurrent_users());
}

TEST(CohortEngine, DeterministicAcrossRuns) {
  expr::ExperimentConfig cfg = small_config(StreamingMode::kP2p);
  cfg.engine = expr::Engine::kCohort;
  const expr::ExperimentResult a = expr::ExperimentRunner::run(cfg);
  const expr::ExperimentResult b = expr::ExperimentRunner::run(cfg);
  expect_identical_results(a, b);
}

// ------------------------------------------------------ cohort output oracle

/// FNV-1a over the bit patterns of every sample (time and value) of every
/// system and per-channel series, with each series' length mixed in.
std::uint64_t series_fingerprint(const vod::SystemMetrics& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  const auto add = [&mix](const util::TimeSeries& s) {
    mix(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      mix(std::bit_cast<std::uint64_t>(s.time_at(i)));
      mix(std::bit_cast<std::uint64_t>(s.value_at(i)));
    }
  };
  for (const util::TimeSeries* s :
       {&m.reserved_mbps, &m.used_cloud_mbps, &m.used_peer_mbps, &m.quality,
        &m.vm_cost_rate, &m.storage_cost_rate, &m.concurrent_users}) {
    add(*s);
  }
  for (const vod::ChannelSeries& c : m.channels) {
    for (const util::TimeSeries* s : {&c.size, &c.quality, &c.provisioned_mbps,
                                      &c.storage_utility, &c.vm_utility}) {
      add(*s);
    }
  }
  return h;
}

struct CohortOracle {
  StreamingMode mode;
  long arrivals, departures, chunk_downloads, late_downloads, buffered_replays;
  std::uint64_t sim_events;
  std::uint64_t vm_cost_bits, storage_cost_bits, series_hash;
};

TEST(CohortEngine, OutputsMatchParentCommitBitForBit) {
  // The cohort kernels are pure reorganisations of the same floating-point
  // operations in the same order, so every output is pinned bit for bit:
  // no committed golden reaches the cohort engine (all sit far below the
  // `auto` threshold). Any change to a summation order shows up here.
  const CohortOracle expected[] = {
      {StreamingMode::kClientServer, 742, 583, 3401, 0, 639, 1908,
       0x4022733333333333ULL, 0x3f305e1c15097c81ULL, 0x4b317e525f460db6ULL},
      {StreamingMode::kP2p, 742, 583, 3401, 11, 639, 1905,
       0x4002000000000000ULL, 0x3f305e1c15097c81ULL, 0xda4a760d5e161467ULL},
  };
  for (const CohortOracle& want : expected) {
    SCOPED_TRACE(want.mode == StreamingMode::kP2p ? "p2p" : "cs");
    expr::ExperimentConfig cfg = small_config(want.mode);
    cfg.engine = expr::Engine::kCohort;
    const expr::ExperimentResult r = expr::ExperimentRunner::run(cfg);
    const vod::SystemCounters& n = r.metrics.counters;
    EXPECT_EQ(n.arrivals, want.arrivals);
    EXPECT_EQ(n.departures, want.departures);
    EXPECT_EQ(n.chunk_downloads, want.chunk_downloads);
    EXPECT_EQ(n.late_downloads, want.late_downloads);
    EXPECT_EQ(n.buffered_replays, want.buffered_replays);
    EXPECT_EQ(r.sim_events, want.sim_events);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.vm_cost_total), want.vm_cost_bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.storage_cost_total),
              want.storage_cost_bits);
    EXPECT_EQ(series_fingerprint(r.metrics), want.series_hash);
  }
}

// --------------------------------------------------- cohort mass accounting

TEST(CohortSystem, RejectsBadQualityIntervalsAtConstruction) {
  // Bad sampling cadences fail when the engine is built, as the discrete
  // engine's do, not later inside Simulator::schedule_periodic at start().
  const expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  sim::Simulator sim;
  const workload::Workload workload(cfg.workload, cfg.seed);
  cloud::CloudConfig cloud_cfg;
  cloud_cfg.sla = cloud::SlaTerms{cfg.vm_budget_per_hour,
                                  cfg.storage_budget_per_hour,
                                  cfg.vm_clusters, cfg.nfs_clusters};
  cloud_cfg.vm = cloud::VmSchedulerConfig{0.0, cfg.vod.vm_bandwidth};
  cloud::CloudService cloud(sim, cloud_cfg);
  const auto build = [&](double quality_interval, double quality_window) {
    vod::CohortOptions options;
    options.streaming.quality_interval = quality_interval;
    options.streaming.quality_window = quality_window;
    vod::CohortSystem system(
        sim, workload, cfg.vod, cloud,
        std::make_unique<core::Controller>(
            cfg.vod,
            core::ControllerConfig{cfg.vm_clusters, cfg.nfs_clusters,
                                   cfg.vm_budget_per_hour,
                                   cfg.storage_budget_per_hour},
            std::make_unique<core::ModelBasedPolicy>(
                cfg.vod, core::DemandEstimatorConfig{})),
        options);
  };
  EXPECT_NO_THROW(build(300.0, 300.0));
  EXPECT_THROW(build(0.0, 300.0), util::PreconditionError);
  EXPECT_THROW(build(-1.0, 300.0), util::PreconditionError);
  EXPECT_THROW(build(300.0, 0.0), util::PreconditionError);
}

TEST(CohortSystem, ConservesViewerMass) {
  expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  cfg.workload.total_arrival_rate = 0.5;

  sim::Simulator sim;
  const workload::Workload workload(cfg.workload, cfg.seed);
  cloud::CloudConfig cloud_cfg;
  cloud_cfg.sla = cloud::SlaTerms{cfg.vm_budget_per_hour,
                                  cfg.storage_budget_per_hour,
                                  cfg.vm_clusters, cfg.nfs_clusters};
  cloud_cfg.vm = cloud::VmSchedulerConfig{0.0, cfg.vod.vm_bandwidth};
  cloud::CloudService cloud(sim, cloud_cfg);
  core::DemandEstimatorConfig est;
  est.mode = StreamingMode::kClientServer;
  auto controller = std::make_unique<core::Controller>(
      cfg.vod,
      core::ControllerConfig{cfg.vm_clusters, cfg.nfs_clusters,
                             cfg.vm_budget_per_hour,
                             cfg.storage_budget_per_hour},
      std::make_unique<core::ModelBasedPolicy>(cfg.vod, est));

  vod::CohortOptions options;
  options.streaming.mode = StreamingMode::kClientServer;
  vod::CohortSystem system(sim, workload, cfg.vod, cloud,
                           std::move(controller), options);
  system.start();
  sim.run_until(3.0 * 3600.0);

  const auto admitted = static_cast<double>(system.viewers_admitted());
  ASSERT_GT(admitted, 0.0);
  // Every admitted viewer is either still in the system or departed
  // (retirement folds sub-threshold residual mass into departures).
  EXPECT_NEAR(system.departures_mass() + system.current_viewer_mass(),
              admitted, 1e-6 * admitted);

  double channel_sum = 0.0;
  for (int c = 0; c < cfg.workload.num_channels; ++c) {
    channel_sum += system.channel_viewer_mass(c);
  }
  EXPECT_NEAR(channel_sum, system.current_viewer_mass(),
              1e-9 * std::max(1.0, channel_sum));
  EXPECT_GE(system.peak_viewer_mass(), system.current_viewer_mass());
  EXPECT_EQ(system.metrics().counters.arrivals,
            static_cast<long>(system.viewers_admitted()));
  EXPECT_GT(system.live_cohorts(), 0u);
}

}  // namespace
}  // namespace cloudmedia
