// The cohort/fluid engine's correctness surface: the bulk event scheduler,
// the batched Poisson arrivals, the engine knob, discrete/auto equivalence
// at small N (the `auto` routing guarantee every committed golden relies
// on), cohort-engine determinism, mass conservation in a forced-cohort
// run, and the tracker's measured rows against the ground-truth transfer
// matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud_service.h"
#include "core/controller.h"
#include "expr/config.h"
#include "expr/runner.h"
#include "sim/simulator.h"
#include "sweep/scenario_catalog.h"
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

TEST(CohortEquivalence, AutoRoutesToCohortAboveThreshold) {
  // At or above the population threshold, engine=auto is the cohort engine
  // bit for bit.
  expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  cfg.workload.total_arrival_rate = 200.0;
  ASSERT_GE(expr::estimated_peak_users(cfg), cfg.cohort_threshold);
  cfg.engine = expr::Engine::kCohort;
  const expr::ExperimentResult cohort = expr::ExperimentRunner::run(cfg);
  cfg.engine = expr::Engine::kAuto;
  const expr::ExperimentResult routed = expr::ExperimentRunner::run(cfg);
  EXPECT_TRUE(cohort.used_cohort_engine);
  EXPECT_TRUE(routed.used_cohort_engine);
  expect_identical_results(cohort, routed);
  EXPECT_GT(routed.metrics.counters.arrivals, 0);
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

/// A reduced-scale live_event_cliff day on the cohort engine: the arrival
/// wall at 20:00 and the departure cliff after it drive cohort creation,
/// retirement and slot recycling far harder than small_config's flat day.
expr::ExperimentConfig cliff_config(StreamingMode mode) {
  expr::ExperimentConfig cfg =
      sweep::ScenarioCatalog::global().make_config("live_event_cliff", mode);
  cfg.workload.num_channels = 4;
  cfg.workload.total_arrival_rate = 0.5;
  cfg.warmup_hours = 0.0;
  cfg.measure_hours = 22.0;
  cfg.seed = 11;
  cfg.engine = expr::Engine::kCohort;
  return cfg;
}

void expect_oracle(const expr::ExperimentConfig& cfg, const CohortOracle& want) {
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

TEST(CohortEngine, OutputsMatchParentCommitBitForBit) {
  // Every output is pinned bit for bit: no committed golden reaches the
  // cohort engine (all sit far below the `auto` threshold). Any change to
  // a summation order shows up here, the tracker's row flows included:
  // their rounding reaches the planner's P̂ and from it the float series.
  // Re-pinned on purpose when the cohort step moved from the dense J×J
  // transfer matrix to the O(J) viewing-chain step: the stepped sums
  // reassociate, so a cohort can cross min_mass one step earlier. That
  // moved the small day's departures (583 → 584), replays (639 → 640),
  // events (C/S 1908 → 1911, P2P 1905 → 1908) and every series hash;
  // arrivals, downloads, late downloads and both cost bit patterns did
  // not move.
  const CohortOracle expected[] = {
      {StreamingMode::kClientServer, 742, 584, 3401, 0, 640, 1911,
       0x4022733333333333ULL, 0x3f305e1c15097c81ULL, 0xd8133c6464ddb6d3ULL},
      {StreamingMode::kP2p, 742, 584, 3401, 11, 640, 1908,
       0x4002000000000000ULL, 0x3f305e1c15097c81ULL, 0x446aefa0544bbeedULL},
  };
  for (const CohortOracle& want : expected) {
    SCOPED_TRACE(want.mode == StreamingMode::kP2p ? "p2p" : "cs");
    expr::ExperimentConfig cfg = small_config(want.mode);
    cfg.engine = expr::Engine::kCohort;
    expect_oracle(cfg, want);
  }
  // The cliff day: cohorts retire in bulk after the event and their slots
  // are recycled by the next windows' arrivals.
  const CohortOracle cliff[] = {
      {StreamingMode::kClientServer, 17168, 16843, 96051, 25983, 8190, 41422,
       0x4071033333333333ULL, 0x3f68017e85411d01ULL, 0x14028a1bce5f2258ULL},
      {StreamingMode::kP2p, 17168, 16262, 94339, 11055, 7049, 41269,
       0x403a8ccccccccccdULL, 0x3f68017e85411d01ULL, 0x592ca238e69b7955ULL},
  };
  for (const CohortOracle& want : cliff) {
    SCOPED_TRACE(want.mode == StreamingMode::kP2p ? "cliff p2p" : "cliff cs");
    expect_oracle(cliff_config(want.mode), want);
  }
}

// --------------------------------------------------- cohort mass accounting

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

TEST(CohortSystem, DownloadRowCacheMatchesItsInputsAtEveryStep) {
  // The rebalance, quality sampling and a transition's first phase read a
  // cached download-mass row per cohort instead of recomputing it. Step a
  // P2P run through retirements, recycled slots and a mid-run behaviour
  // reshape, and check the cache bit for bit at each step.
  expr::ExperimentConfig cfg = small_config(StreamingMode::kP2p);
  cfg.workload.total_arrival_rate = 0.5;

  sim::Simulator sim;
  workload::Workload workload(cfg.workload, cfg.seed);
  cloud::CloudConfig cloud_cfg;
  cloud_cfg.sla = cloud::SlaTerms{cfg.vm_budget_per_hour,
                                  cfg.storage_budget_per_hour,
                                  cfg.vm_clusters, cfg.nfs_clusters};
  cloud_cfg.vm = cloud::VmSchedulerConfig{0.0, cfg.vod.vm_bandwidth};
  cloud::CloudService cloud(sim, cloud_cfg);
  core::DemandEstimatorConfig est;
  est.mode = StreamingMode::kP2p;
  auto controller = std::make_unique<core::Controller>(
      cfg.vod,
      core::ControllerConfig{cfg.vm_clusters, cfg.nfs_clusters,
                             cfg.vm_budget_per_hour,
                             cfg.storage_budget_per_hour},
      std::make_unique<core::ModelBasedPolicy>(cfg.vod, est));

  vod::CohortOptions options;
  options.streaming.mode = StreamingMode::kP2p;
  vod::CohortSystem system(sim, workload, cfg.vod, cloud,
                           std::move(controller), options);
  system.start();

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::size_t live_checked = 0;
  std::size_t free_checked = 0;
  for (double t = 60.0; t <= 5.0 * 3600.0; t += 60.0) {
    if (t == 2.5 * 3600.0) {
      // Reshape behaviour: later windows derive a new transfer matrix.
      workload::WorkloadConfig reshaped = workload.config();
      reshaped.behavior.jump_prob = 0.45;
      reshaped.behavior.leave_prob = 0.3;
      workload.set_config(reshaped);
    }
    sim.run_until(t);
    for (std::size_t slot = 0; slot < system.arena_slots(); ++slot) {
      const vod::CohortSystem::SlotView v = system.slot_view(slot);
      for (std::size_t j = 0; j < v.download.size(); ++j) {
        const auto where = [&] {
          return testing::Message() << "t=" << t << " slot=" << slot
                                    << " chunk=" << j;
        };
        if (v.live) {
          ASSERT_EQ(bits(v.download[j]),
                    bits(vod::download_mass(v.occupancy[j], v.owned[j],
                                            v.alive)))
              << where();
        } else {
          // Retirement clears the whole slot, cache included.
          ASSERT_EQ(bits(v.download[j]), bits(0.0)) << where();
          ASSERT_EQ(bits(v.occupancy[j]), bits(0.0)) << where();
          ASSERT_EQ(bits(v.owned[j]), bits(0.0)) << where();
        }
      }
      ++(v.live ? live_checked : free_checked);
    }
  }
  const vod::CohortCounters& n = system.cohort_counters();
  // Slots were recycled: more cohorts admitted than the arena ever held.
  EXPECT_GT(n.cohorts, system.arena_slots());
  EXPECT_GT(live_checked, 0u);
  EXPECT_GT(free_checked, 0u);
  // One row per admission and per transition, none from the periodics.
  EXPECT_EQ(n.download_rows, n.cohorts + n.transitions);
}

// ------------------------------------------------------ cohort tracker rows

/// One report the controller's policy was handed, the simulated time of
/// the call, and the (channel · J + row) cells some cohort stepped from
/// since the previous call.
struct Harvest {
  double now;
  core::TrackerReport report;
  std::vector<char> stepped;
};

/// Hands every report to the wrapped policy unchanged and records it with
/// the stepped cells the stepping loop collected since the last report.
class RecordingPolicy final : public core::DemandPolicy {
 public:
  RecordingPolicy(std::unique_ptr<core::DemandPolicy> inner,
                  const sim::Simulator& sim, std::vector<char>& stepped,
                  std::vector<Harvest>& harvests)
      : inner_(std::move(inner)),
        sim_(sim),
        stepped_(stepped),
        harvests_(harvests) {}

  [[nodiscard]] core::DemandSet estimate(
      const core::TrackerReport& report) override {
    harvests_.push_back({sim_.now(), report, stepped_});
    std::fill(stepped_.begin(), stepped_.end(), 0);
    return inner_->estimate(report);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::DemandPolicy> inner_;
  const sim::Simulator& sim_;
  std::vector<char>& stepped_;
  std::vector<Harvest>& harvests_;
};

/// Runs `cfg` on a hand-built CohortSystem one event at a time and returns
/// the harvested reports (the t = 0 bootstrap report is dropped: it is the
/// provider's prior, not a measurement). A live slot whose occupancy an
/// event changed or cleared has stepped: its occupied rows before the event
/// are marked. Cohorts batch arrivals over `window` seconds. `reshape`,
/// when set, is applied to the workload config at `reshape_at` seconds.
std::vector<Harvest> record_harvests(
    const expr::ExperimentConfig& cfg,
    double window = expr::ExperimentConfig::cohort_window,
    double reshape_at = 0.0,
    const std::function<void(expr::ExperimentConfig&)>& reshape = {}) {
  sim::Simulator sim;
  workload::Workload workload(cfg.workload, cfg.seed);
  cloud::CloudConfig cloud_cfg;
  cloud_cfg.sla = cloud::SlaTerms{cfg.vm_budget_per_hour,
                                  cfg.storage_budget_per_hour,
                                  cfg.vm_clusters, cfg.nfs_clusters};
  cloud_cfg.vm = cloud::VmSchedulerConfig{0.0, cfg.vod.vm_bandwidth};
  cloud::CloudService cloud(sim, cloud_cfg);
  core::DemandEstimatorConfig est;
  est.mode = cfg.mode;

  const auto j_count = static_cast<std::size_t>(cfg.vod.chunks_per_video);
  std::vector<char> stepped(
      static_cast<std::size_t>(cfg.workload.num_channels) * j_count, 0);
  std::vector<Harvest> harvests;
  auto controller = std::make_unique<core::Controller>(
      cfg.vod,
      core::ControllerConfig{cfg.vm_clusters, cfg.nfs_clusters,
                             cfg.vm_budget_per_hour,
                             cfg.storage_budget_per_hour},
      std::make_unique<RecordingPolicy>(
          std::make_unique<core::ModelBasedPolicy>(cfg.vod, est), sim,
          stepped, harvests));

  vod::CohortOptions options;
  options.streaming.mode = cfg.mode;
  options.window = window;
  vod::CohortSystem system(sim, workload, cfg.vod, cloud,
                           std::move(controller), options);
  if (reshape) {
    sim.schedule_at(reshape_at, [&] {
      expr::ExperimentConfig reshaped = cfg;
      reshape(reshaped);
      workload.set_config(reshaped.workload);
    });
  }
  system.start();

  // Each slot's channel (-1 = free) and occupancy as of the last event.
  std::vector<int> channel_seen;
  std::vector<double> occ_seen;  // [slot · J + j]
  while (sim.now() < cfg.total_duration()) {
    if (sim.run_all(1) == 0) break;
    const std::size_t slots = system.arena_slots();
    channel_seen.resize(slots, -1);
    occ_seen.resize(slots * j_count, 0.0);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const vod::CohortSystem::SlotView v = system.slot_view(slot);
      double* const seen = occ_seen.data() + slot * j_count;
      const int channel = channel_seen[slot];
      if (channel >= 0 && v.live &&
          std::equal(seen, seen + j_count, v.occupancy.begin()))
        continue;
      if (channel >= 0) {
        char* const cells =
            stepped.data() + static_cast<std::size_t>(channel) * j_count;
        for (std::size_t j = 0; j < j_count; ++j) {
          if (seen[j] > 0.0) cells[j] = 1;
        }
      }
      channel_seen[slot] = v.live ? v.channel : -1;
      if (v.live) std::copy(v.occupancy.begin(), v.occupancy.end(), seen);
    }
  }
  std::erase_if(harvests, [](const Harvest& h) { return h.now <= 0.0; });
  return harvests;
}

/// Whether row j of a harvested P̂ has any mass (Tracker::harvest leaves
/// unobserved rows all zero).
bool observed_row(const util::Matrix& transfer, std::size_t j) {
  const double* const row = transfer.row(j);
  return std::any_of(row, row + transfer.cols(),
                     [](double p) { return p != 0.0; });
}

/// Rows of harvested reports that expect_ground_truth_rows checked.
struct RowCounts {
  std::size_t observed = 0;   ///< matched against the ground truth
  std::size_t unstepped = 0;  ///< no cohort stepped from them: all zero
};

/// Checks every report in `harvests` whose interval satisfies `in_scope`
/// against `truth`: a row some cohort stepped from equals the
/// ground-truth row within 1e-12 relative, and every other row is all
/// zero.
RowCounts expect_ground_truth_rows(
    const std::vector<Harvest>& harvests, const util::Matrix& truth,
    const std::function<bool(const core::TrackerReport&)>& in_scope) {
  RowCounts n;
  const std::size_t j_count = truth.rows();
  for (const Harvest& h : harvests) {
    if (!in_scope(h.report)) continue;
    for (std::size_t c = 0; c < h.report.channels.size(); ++c) {
      const util::Matrix& seen = h.report.channels[c].transfer;
      for (std::size_t j = 0; j < j_count; ++j) {
        SCOPED_TRACE(testing::Message() << "t=" << h.now << " channel=" << c
                                        << " row=" << j);
        const bool seen_row = observed_row(seen, j);
        if (!h.stepped[c * j_count + j]) {
          ++n.unstepped;
          EXPECT_FALSE(seen_row) << "a row no cohort stepped from was seen";
          continue;
        }
        // A row whose viewers all leave reports no flows, stepped or not.
        if (!observed_row(truth, j)) continue;
        EXPECT_TRUE(seen_row) << "a row some cohort stepped from was lost";
        ++n.observed;
        for (std::size_t k = 0; k < j_count; ++k) {
          EXPECT_NEAR(seen(j, k), truth(j, k), 1e-12 * truth(j, k))
              << "column " << k;
        }
      }
    }
  }
  return n;
}

TEST(CohortEngine, TrackerReportsGroundTruthRows) {
  // A cohort moves by the ground-truth P, so the tracker's measured P̂ is
  // P on every row some cohort stepped from in the interval, and zero on
  // every other row.
  const auto all = [](const core::TrackerReport&) { return true; };
  const auto ground_truth = [](const expr::ExperimentConfig& cfg) {
    return cfg.workload.behavior.transfer_matrix(cfg.vod.chunks_per_video);
  };
  for (const expr::ExperimentConfig& cfg :
       {small_config(StreamingMode::kClientServer),
        cliff_config(StreamingMode::kP2p)}) {
    const std::vector<Harvest> harvests = record_harvests(cfg);
    ASSERT_FALSE(harvests.empty());
    EXPECT_GT(
        expect_ground_truth_rows(harvests, ground_truth(cfg), all).observed,
        0u);
  }
  // Without seeks a cohort sweeps one row per step from chunk 0, so the
  // first hours leave the tail rows unstepped. A window that does not
  // divide the provisioning interval puts steps between the last window
  // tick and the harvest, which must still reach that harvest.
  expr::ExperimentConfig no_seeks =
      cliff_config(StreamingMode::kClientServer);
  no_seeks.workload.behavior.jump_prob = 0.0;
  no_seeks.measure_hours = 6.0;
  const RowCounts swept = expect_ground_truth_rows(
      record_harvests(no_seeks, 400.0), ground_truth(no_seeks), all);
  EXPECT_GT(swept.observed, 0u);
  EXPECT_GT(swept.unstepped, 0u);

  // A behavior.zapping op mid-interval: intervals wholly before it see the
  // old P, intervals wholly after it the new one.
  expr::ExperimentConfig cfg = small_config(StreamingMode::kClientServer);
  cfg.workload.total_arrival_rate = 0.5;
  cfg.measure_hours = 3.0;
  const std::vector<sweep::ScenarioOp>& ops =
      sweep::ScenarioCatalog::global().at("churn_heavy").ops;
  const auto zapping =
      std::find_if(ops.begin(), ops.end(), [](const sweep::ScenarioOp& op) {
        return op.name == "behavior.zapping";
      });
  ASSERT_NE(zapping, ops.end());
  const double fire = 1.5 * 3600.0;
  const std::vector<Harvest> harvests =
      record_harvests(cfg, cfg.cohort_window, fire, zapping->apply);
  expr::ExperimentConfig zapped = cfg;
  zapping->apply(zapped);
  ASSERT_NE(ground_truth(zapped)(0, 1), ground_truth(cfg)(0, 1));
  const RowCounts before = expect_ground_truth_rows(
      harvests, ground_truth(cfg), [fire](const core::TrackerReport& r) {
        return r.interval_start + r.interval_length <= fire;
      });
  const RowCounts after = expect_ground_truth_rows(
      harvests, ground_truth(zapped), [fire](const core::TrackerReport& r) {
        return r.interval_start >= fire;
      });
  EXPECT_GT(before.observed, 0u);
  EXPECT_GT(after.observed, 0u);

  // The interval the op splits saw both: each observed row is the blend
  // w·old + (1 − w)·new of the two rows, weighted by the mass stepped
  // before the op, and that mass is not lost to the new P.
  const util::Matrix old_p = ground_truth(cfg);
  const util::Matrix new_p = ground_truth(zapped);
  double max_w = 0.0;
  for (const Harvest& h : harvests) {
    const core::TrackerReport& r = h.report;
    if (r.interval_start >= fire ||
        r.interval_start + r.interval_length <= fire)
      continue;
    for (const core::ChannelObservation& obs : r.channels) {
      for (std::size_t j = 0; j < old_p.rows(); ++j) {
        if (!observed_row(obs.transfer, j)) continue;
        std::size_t pivot = 0;  // the column the two rows differ most in
        for (std::size_t k = 1; k < old_p.cols(); ++k) {
          if (std::abs(old_p(j, k) - new_p(j, k)) >
              std::abs(old_p(j, pivot) - new_p(j, pivot)))
            pivot = k;
        }
        const double w = (obs.transfer(j, pivot) - new_p(j, pivot)) /
                         (old_p(j, pivot) - new_p(j, pivot));
        EXPECT_GE(w, -1e-12) << "row " << j;
        EXPECT_LE(w, 1.0 + 1e-12) << "row " << j;
        for (std::size_t k = 0; k < old_p.cols(); ++k) {
          EXPECT_NEAR(obs.transfer(j, k),
                      w * old_p(j, k) + (1.0 - w) * new_p(j, k), 1e-12)
              << "row " << j << " column " << k;
        }
        max_w = std::max(max_w, w);
      }
    }
  }
  EXPECT_GT(max_w, 0.1);
}

}  // namespace
}  // namespace cloudmedia
