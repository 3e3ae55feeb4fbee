#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud_service.h"
#include "core/controller.h"
#include "expr/config.h"
#include "sim/simulator.h"
#include "sweep/scenario_catalog.h"
#include "util/check.h"
#include "vod/service_pool.h"
#include "vod/streaming_system.h"
#include "vod/tracker.h"
#include "workload/scenario.h"

namespace cloudmedia::vod {
namespace {

struct PoolHarness {
  sim::Simulator sim;
  std::vector<ServicePool::Completion> done;
  ServicePool pool;

  explicit PoolHarness(double per_job_cap = 100.0)
      : pool(sim, per_job_cap,
             [this](const ServicePool::Completion& c) { done.push_back(c); }) {}
};

// ------------------------------------------------------------ ServicePool

TEST(ServicePool, SingleJobServedAtPerJobCap) {
  PoolHarness h(100.0);
  h.pool.set_capacity(0.0, 1000.0);  // capacity far above the cap
  h.pool.add_job(500.0, 7);
  h.sim.run_until(4.9);
  EXPECT_TRUE(h.done.empty());
  h.sim.run_until(5.0);  // 500 bytes / 100 B/s
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].tag, 7u);
  EXPECT_NEAR(h.done[0].sojourn, 5.0, 1e-9);
}

TEST(ServicePool, CapacityLimitsSingleJob) {
  PoolHarness h(100.0);
  h.pool.set_capacity(0.0, 50.0);
  h.pool.add_job(500.0, 1);
  h.sim.run_until(10.0);  // 500 / 50
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_NEAR(h.done[0].sojourn, 10.0, 1e-9);
}

TEST(ServicePool, ProcessorSharingSplitsEqually) {
  PoolHarness h(100.0);
  h.pool.set_capacity(0.0, 100.0);
  h.pool.add_job(100.0, 1);
  h.pool.add_job(100.0, 2);
  // Two equal jobs at 50 B/s each finish together at t = 2.
  h.sim.run_until(2.0);
  ASSERT_EQ(h.done.size(), 2u);
  EXPECT_NEAR(h.done[0].sojourn, 2.0, 1e-9);
  EXPECT_NEAR(h.done[1].sojourn, 2.0, 1e-9);
}

TEST(ServicePool, LateArrivalFinishesLater) {
  PoolHarness h(100.0);
  h.pool.set_capacity(0.0, 100.0);
  h.pool.add_job(100.0, 1);
  h.sim.schedule_at(0.5, [&] { h.pool.add_job(100.0, 2); });
  h.sim.run_all();
  ASSERT_EQ(h.done.size(), 2u);
  // Job 1: 0.5s alone (50 B) + shares 50 B/s until 100 B total:
  // needs 50 more bytes at 50 B/s -> t = 1.5.
  EXPECT_EQ(h.done[0].tag, 1u);
  EXPECT_NEAR(h.done[0].sojourn, 1.5, 1e-9);
  // Job 2: 50 B/s from 0.5 to 1.5 (50 B), then alone at 100 B/s for the
  // remaining 50 B -> completes at 2.0, sojourn 1.5.
  EXPECT_EQ(h.done[1].tag, 2u);
  EXPECT_NEAR(h.done[1].sojourn, 1.5, 1e-9);
}

TEST(ServicePool, CapacityChangeMidDownload) {
  PoolHarness h(1000.0);
  h.pool.set_capacity(0.0, 10.0);
  h.pool.add_job(100.0, 1);
  h.sim.schedule_at(5.0, [&] { h.pool.set_capacity(0.0, 5.0); });
  h.sim.run_all();
  // 50 bytes in the first 5 s, remaining 50 at 5 B/s -> t = 15.
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_NEAR(h.done[0].sojourn, 15.0, 1e-9);
}

TEST(ServicePool, StarvedPoolResumesWhenCapacityReturns) {
  PoolHarness h(100.0);
  h.pool.set_capacity(0.0, 0.0);
  h.pool.add_job(100.0, 1);
  h.sim.run_until(50.0);
  EXPECT_TRUE(h.done.empty());
  h.pool.set_capacity(0.0, 100.0);
  h.sim.run_all();
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_NEAR(h.done[0].sojourn, 51.0, 1e-9);
}

TEST(ServicePool, HoldsOneTimerWhileBusyAndNoneWhenIdleOrStarved) {
  // The pool re-arms its completion timer in place: through any mix of
  // joins, leaves and capacity or fluid changes it owns exactly one
  // pending simulator event while it can make progress, and none while
  // idle or starved.
  PoolHarness h(100.0);
  h.pool.set_capacity(0.0, 100.0);
  h.pool.set_fluid_jobs(2.0);
  EXPECT_EQ(h.sim.pending(), 0u);  // fluid load alone never completes
  const std::uint64_t first = h.pool.add_job(500.0, 1);
  EXPECT_EQ(h.sim.pending(), 1u);
  h.pool.add_job(300.0, 2);
  EXPECT_EQ(h.sim.pending(), 1u);
  h.pool.set_fluid_jobs(0.5);
  EXPECT_EQ(h.sim.pending(), 1u);
  h.sim.run_until(1.0);
  h.pool.set_capacity(40.0, 60.0);
  EXPECT_EQ(h.sim.pending(), 1u);
  EXPECT_TRUE(h.pool.remove_job(first));
  EXPECT_EQ(h.sim.pending(), 1u);

  h.pool.set_capacity(0.0, 0.0);  // starved
  EXPECT_EQ(h.sim.pending(), 0u);
  h.pool.add_job(100.0, 3);
  h.pool.set_fluid_jobs(0.0);
  EXPECT_EQ(h.sim.pending(), 0u);
  h.sim.run_until(10.0);
  EXPECT_TRUE(h.done.empty());

  h.pool.set_capacity(0.0, 100.0);  // capacity returns: the timer resumes
  EXPECT_EQ(h.sim.pending(), 1u);
  while (h.sim.pending() != 0) {
    EXPECT_EQ(h.sim.pending(), 1u);
    h.sim.run_all(1);
  }
  EXPECT_EQ(h.done.size(), 2u);
  EXPECT_EQ(h.pool.active_jobs(), 0u);

  const std::uint64_t last = h.pool.add_job(50.0, 4);
  EXPECT_EQ(h.sim.pending(), 1u);
  EXPECT_TRUE(h.pool.remove_job(last));  // idle again
  EXPECT_EQ(h.sim.pending(), 0u);
}

TEST(ServicePool, NoLivelockAfterLongBusyPeriods) {
  // Regression: the cumulative service level only matters relative to the
  // outstanding targets, but it used to grow without bound. Past ~2^35
  // bytes one double ULP exceeds the completion tolerance, `level +=
  // rate*dt` rounds to zero progress, and the pool reschedules the same
  // completion forever at an unmoving clock — week-long paper-scale runs
  // froze at t around 2^17 s. The pool now rebases; this keeps a pool busy
  // at the paper's per-VM rate far past the old tipping point.
  PoolHarness h(1.25e6);                  // R = 10 Mbps per connection
  h.pool.set_capacity(0.0, 1.25e6);
  const double chunk_bytes = 15e6;        // the paper's 15 MB chunks
  long completions = 0;
  // Keep exactly one job in flight: each completion enqueues the next.
  std::function<void()> enqueue = [&] { h.pool.add_job(chunk_bytes, 1); };
  h.pool.set_capacity(0.0, 1.25e6);
  enqueue();
  const double horizon = 300'000.0;       // ~3.5 simulated days busy
  double watchdog = 0.0;
  while (h.sim.now() < horizon) {
    const std::size_t before = h.done.size();
    h.sim.run_all(1000);
    completions += static_cast<long>(h.done.size() - before);
    for (std::size_t k = before; k < h.done.size(); ++k) enqueue();
    // A livelock would stop advancing the clock while burning events.
    ASSERT_GT(h.sim.now(), watchdog) << "clock stalled at " << h.sim.now();
    watchdog = h.sim.now();
    if (h.sim.pending() == 0) break;
  }
  // 1.25e6 B/s over 300000 s serves exactly 25 chunks/300 s.
  EXPECT_NEAR(static_cast<double>(completions), horizon / 12.0, 2.0);
}

TEST(ServicePool, TinyResidualWorkCompletesAtLargeSimTimes) {
  // Regression companion to NoLivelockAfterLongBusyPeriods: even with the
  // service level rebased, a job whose *remaining* bytes are just above
  // the byte tolerance needs a timer step below the clock's resolution
  // once now is large (ULP(131072 s) ~ 3e-11 s) — scheduling it would land
  // back on `now` and spin forever. The completion tolerance absorbs any
  // work the clock cannot resolve.
  PoolHarness h(1.25e6);
  h.pool.set_capacity(0.0, 1.25e6);
  h.sim.run_until(131'072.0);  // a large clock, as in week-long runs
  // Remaining work after the scheduled hop lands within a clock quantum:
  // 2e-5 bytes at 1.25e6 B/s is a 1.6e-11 s step, below ULP(now).
  h.pool.add_job(15e6 + 2e-5, 1);
  const std::size_t events = h.sim.run_all(10'000);
  ASSERT_EQ(h.done.size(), 1u) << "job never completed (frozen-clock spin)";
  EXPECT_LT(events, 100u) << "completion took an event storm";
  EXPECT_NEAR(h.done[0].sojourn, 12.0, 1e-3);
}

TEST(ServicePool, RemoveJobSuppressesCompletion) {
  PoolHarness h(100.0);
  h.pool.set_capacity(0.0, 100.0);
  const std::uint64_t id = h.pool.add_job(100.0, 1);
  EXPECT_TRUE(h.pool.remove_job(id));
  EXPECT_FALSE(h.pool.remove_job(id));
  h.sim.run_all();
  EXPECT_TRUE(h.done.empty());
  EXPECT_EQ(h.pool.active_jobs(), 0u);
}

TEST(ServicePool, PeerFirstAttribution) {
  PoolHarness h(100.0);
  h.pool.set_capacity(60.0, 40.0);
  h.pool.add_job(1000.0, 1);  // rate = min(100, 100/1) = 100
  EXPECT_NEAR(h.pool.total_rate(), 100.0, 1e-9);
  EXPECT_NEAR(h.pool.peer_rate(), 60.0, 1e-9);
  EXPECT_NEAR(h.pool.cloud_rate(), 40.0, 1e-9);
}

TEST(ServicePool, CloudUnusedWhenPeersSuffice) {
  PoolHarness h(10.0);
  h.pool.set_capacity(60.0, 40.0);
  h.pool.add_job(1000.0, 1);  // per-job cap 10 binds
  EXPECT_NEAR(h.pool.total_rate(), 10.0, 1e-9);
  EXPECT_NEAR(h.pool.peer_rate(), 10.0, 1e-9);
  EXPECT_NEAR(h.pool.cloud_rate(), 0.0, 1e-9);
}

TEST(ServicePool, ByteCountersSplitBySource) {
  PoolHarness h(100.0);
  h.pool.set_capacity(30.0, 70.0);
  h.pool.add_job(100.0, 1);
  h.sim.run_all();  // 1 second at 100 B/s
  h.pool.sync();
  EXPECT_NEAR(h.pool.peer_bytes_served(), 30.0, 1e-6);
  EXPECT_NEAR(h.pool.cloud_bytes_served(), 70.0, 1e-6);
}

TEST(ServicePool, ManyJobsAllComplete) {
  PoolHarness h(10.0);
  h.pool.set_capacity(0.0, 100.0);
  for (int i = 0; i < 50; ++i) {
    h.pool.add_job(10.0 + i, static_cast<std::uint64_t>(i));
  }
  h.sim.run_all();
  EXPECT_EQ(h.done.size(), 50u);
  EXPECT_EQ(h.pool.active_jobs(), 0u);
  // Smaller jobs finish no later than larger ones (equal rates).
  for (std::size_t k = 1; k < h.done.size(); ++k) {
    EXPECT_LE(h.done[k - 1].tag, h.done[k].tag);
  }
}

TEST(ServicePool, CompletionHandlerMayAddJobs) {
  sim::Simulator sim;
  int completions = 0;
  ServicePool* pool_ptr = nullptr;
  ServicePool pool(sim, 100.0, [&](const ServicePool::Completion&) {
    if (++completions < 3) pool_ptr->add_job(100.0, 9);
  });
  pool_ptr = &pool;
  pool.set_capacity(0.0, 100.0);
  pool.add_job(100.0, 9);
  sim.run_all();
  EXPECT_EQ(completions, 3);
}

TEST(ServicePool, RejectsInvalidArguments) {
  PoolHarness h;
  EXPECT_THROW(h.pool.add_job(0.0, 1), util::PreconditionError);
  EXPECT_THROW(h.pool.set_capacity(-1.0, 0.0), util::PreconditionError);
}

TEST(ServicePool, SojournMeasuredFromEnqueue) {
  PoolHarness h(100.0);
  h.pool.set_capacity(0.0, 100.0);
  h.sim.schedule_at(10.0, [&] { h.pool.add_job(200.0, 4); });
  h.sim.run_all();
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_NEAR(h.done[0].enqueue_time, 10.0, 1e-12);
  EXPECT_NEAR(h.done[0].sojourn, 2.0, 1e-9);
}

// ------------------------------------------------- ServicePool fluid jobs

TEST(ServicePool, FluidJobsShareCapacityWithDiscreteJobs) {
  PoolHarness h(100.0);
  h.pool.set_capacity(0.0, 100.0);
  h.pool.add_job(100.0, 1);
  h.pool.set_fluid_jobs(1.0);  // processor-sharing denominator becomes 2
  EXPECT_NEAR(h.pool.per_job_rate(), 50.0, 1e-12);
  EXPECT_NEAR(h.pool.total_rate(), 100.0, 1e-12);
  h.sim.run_all();
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_NEAR(h.done[0].sojourn, 2.0, 1e-9);  // slowed from 1 s to 2 s
}

TEST(ServicePool, FluidOnlyPoolAccruesBytesWithoutCompletions) {
  PoolHarness h(100.0);
  h.pool.set_capacity(30.0, 70.0);
  h.pool.set_fluid_jobs(4.0);  // per-job rate min(100, 100/4) = 25
  EXPECT_NEAR(h.pool.total_rate(), 100.0, 1e-12);
  h.sim.run_until(10.0);
  h.pool.sync();
  EXPECT_TRUE(h.done.empty());  // fluid mass never "completes"
  EXPECT_EQ(h.pool.active_jobs(), 0u);
  EXPECT_NEAR(h.pool.peer_bytes_served(), 300.0, 1e-6);
  EXPECT_NEAR(h.pool.cloud_bytes_served(), 700.0, 1e-6);
}

TEST(ServicePool, ZeroFluidJobsIsBitNeutral) {
  // The discrete engine leaves fluid_jobs_ at 0.0; x + 0.0 == x exactly,
  // so the committed goldens cannot move. Pin the neutral case.
  PoolHarness h(100.0);
  h.pool.set_capacity(0.0, 100.0);
  h.pool.add_job(100.0, 1);
  h.pool.set_fluid_jobs(0.0);
  EXPECT_DOUBLE_EQ(h.pool.per_job_rate(), 100.0);
  h.sim.run_all();
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_NEAR(h.done[0].sojourn, 1.0, 1e-12);
}

TEST(ServicePool, FluidJobsClearedMidFlightRestoresFullRate) {
  PoolHarness h(100.0);
  h.pool.set_capacity(0.0, 100.0);
  h.pool.add_job(100.0, 1);
  h.pool.set_fluid_jobs(1.0);                           // 50 B/s
  h.sim.schedule_at(1.0, [&] { h.pool.set_fluid_jobs(0.0); });
  h.sim.run_all();
  // 50 bytes in the shared first second, the rest alone at 100 B/s.
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_NEAR(h.done[0].sojourn, 1.5, 1e-9);
}

TEST(ServicePool, FluidJobsRejectInvalidValues) {
  PoolHarness h;
  EXPECT_THROW(h.pool.set_fluid_jobs(-1.0), util::PreconditionError);
}

TEST(ServicePool, MidWindowJoinersSurviveRebaseWithFluidLoad) {
  // Regression for the rebase/mid-window interaction: jobs that join while
  // earlier jobs are in flight carry absolute targets (enqueue level +
  // bytes), and a rebase must shift *every* outstanding target by the same
  // base exactly once — including jobs added mid-window and while fluid
  // load sits in the processor-sharing denominator. Byte volumes here are
  // chosen so the run crosses the 1e9 rebase threshold mid-flight: if the
  // rebase mis-shifted any joiner's target, its completion time would move
  // by ~1e9/rate seconds, not nanoseconds.
  PoolHarness h(1e12);  // no per-job cap: rate = capacity / n
  h.pool.set_capacity(0.0, 1e9);
  h.pool.add_job(8e8, 1);                                 // alone: 1e9 B/s
  h.sim.schedule_at(0.4, [&] { h.pool.add_job(8e8, 2); });  // level 4e8
  h.sim.schedule_at(0.8, [&] { h.pool.set_fluid_jobs(2.0); });
  // Joins mid-window at the rebase boundary (level ≈ 1e9).
  h.sim.schedule_at(2.2, [&] { h.pool.add_job(3e8, 3); });
  h.sim.run_all();

  ASSERT_EQ(h.done.size(), 3u);
  // Job 1: 1e9 B/s for 0.4 s, 5e8 B/s for 0.4 s (job 2 joins), 2.5e8 B/s
  // once 2 fluid jobs join at t = 0.8 -> 8e8 bytes done at t = 1.6.
  EXPECT_EQ(h.done[0].tag, 1u);
  EXPECT_NEAR(h.done[0].sojourn, 1.6, 1e-6);
  // Job 2 (target 1.2e9, past the threshold): shares as above, then runs
  // with 2 fluid jobs at 1e9/3 B/s from 1.6 to 2.2, at 2.5e8 B/s after
  // job 3 joins -> completes at t = 3.0 (sojourn 2.6). The rebase fires
  // during this stretch; its completion must not move.
  EXPECT_EQ(h.done[1].tag, 2u);
  EXPECT_NEAR(h.done[1].sojourn, 2.6, 1e-6);
  // Job 3 joined mid-window right at the threshold: 2.5e8 B/s until job 2
  // finishes, then 1e9/3 B/s for the last 1e8 bytes -> done at t = 3.3.
  EXPECT_EQ(h.done[2].tag, 3u);
  EXPECT_NEAR(h.done[2].sojourn, 1.1, 1e-6);
}

// --------------------------------------------------------------- Tracker

TEST(Tracker, CountsArrivalsAndTransitions) {
  Tracker tracker(2, 4);
  tracker.record_arrival(0, 0);
  tracker.record_arrival(0, 2);
  tracker.record_transition(0, 0, 1);
  tracker.record_transition(0, 1, std::nullopt);
  EXPECT_EQ(tracker.arrivals(0), 2);
  EXPECT_EQ(tracker.transitions(0, 0, 1), 1);
  EXPECT_EQ(tracker.leaves(0, 1), 1);
  EXPECT_EQ(tracker.arrivals(1), 0);
}

TEST(Tracker, HarvestBuildsNormalizedReport) {
  Tracker tracker(1, 3);
  for (int i = 0; i < 60; ++i) tracker.record_arrival(0, 0);
  for (int i = 0; i < 30; ++i) tracker.record_arrival(0, 1);
  for (int i = 0; i < 40; ++i) tracker.record_transition(0, 0, 1);
  for (int i = 0; i < 10; ++i) tracker.record_transition(0, 0, 2);
  for (int i = 0; i < 50; ++i) tracker.record_transition(0, 0, std::nullopt);

  const std::vector<std::vector<double>> occupancy{{1.0, 2.0, 3.0}};
  const std::vector<double> uplink{55'000.0};
  const std::vector<std::vector<double>> served{{1e6, 0.0, 0.0}};
  const core::TrackerReport report =
      tracker.harvest(0.0, 3600.0, occupancy, uplink, served);

  ASSERT_EQ(report.channels.size(), 1u);
  const core::ChannelObservation& obs = report.channels[0];
  EXPECT_NEAR(obs.arrival_rate, 90.0 / 3600.0, 1e-12);
  EXPECT_NEAR(obs.entry[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(obs.entry[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(obs.transfer(0, 1), 0.4, 1e-12);
  EXPECT_NEAR(obs.transfer(0, 2), 0.1, 1e-12);
  // Row sum leaves out the 50% leave probability.
  EXPECT_NEAR(obs.transfer(0, 0) + obs.transfer(0, 1) + obs.transfer(0, 2),
              0.5, 1e-12);
  EXPECT_EQ(obs.occupancy, occupancy[0]);
  EXPECT_DOUBLE_EQ(obs.mean_peer_uplink, 55'000.0);
  EXPECT_EQ(obs.served_cloud_bandwidth, served[0]);
}

TEST(Tracker, HarvestResetsCounters) {
  Tracker tracker(1, 2);
  tracker.record_arrival(0, 0);
  tracker.record_transition(0, 0, 1);
  const std::vector<std::vector<double>> occupancy{{0.0, 0.0}};
  const std::vector<double> uplink{0.0};
  (void)tracker.harvest(0.0, 3600.0, occupancy, uplink, occupancy);
  EXPECT_EQ(tracker.arrivals(0), 0);
  EXPECT_EQ(tracker.transitions(0, 0, 1), 0);
  const core::TrackerReport second =
      tracker.harvest(3600.0, 3600.0, occupancy, uplink, occupancy);
  EXPECT_DOUBLE_EQ(second.channels[0].arrival_rate, 0.0);
}

TEST(Tracker, NoArrivalsYieldsValidEntryDistribution) {
  Tracker tracker(1, 3);
  const std::vector<std::vector<double>> occupancy{{0, 0, 0}};
  const std::vector<double> uplink{0.0};
  const core::TrackerReport report =
      tracker.harvest(0.0, 3600.0, occupancy, uplink, occupancy);
  double total = 0.0;
  for (double e : report.channels[0].entry) total += e;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Tracker, UnobservedRowsStayZero) {
  Tracker tracker(1, 3);
  tracker.record_transition(0, 0, 1);
  const std::vector<std::vector<double>> occupancy{{0, 0, 0}};
  const std::vector<double> uplink{0.0};
  const core::TrackerReport report =
      tracker.harvest(0.0, 3600.0, occupancy, uplink, occupancy);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(report.channels[0].transfer(2, j), 0.0);
  }
}

TEST(Tracker, ValidatesIndices) {
  Tracker tracker(2, 3);
  EXPECT_THROW(tracker.record_arrival(5, 0), util::PreconditionError);
  EXPECT_THROW(tracker.record_arrival(0, 9), util::PreconditionError);
  EXPECT_THROW(tracker.record_transition(0, 0, 7), util::PreconditionError);

  const std::vector<double> row{0.5, 0.0, 1.5};
  EXPECT_THROW(tracker.record_flows(2, 0, row, 0.0), util::PreconditionError);
  EXPECT_THROW(tracker.record_flows(0, 3, row, 0.0), util::PreconditionError);
  EXPECT_THROW(tracker.record_flows(0, -1, row, 0.0), util::PreconditionError);
  const std::vector<double> short_row{0.5, 1.5};
  EXPECT_THROW(tracker.record_flows(0, 0, short_row, 0.0),
               util::PreconditionError);
  const std::vector<double> negative{0.5, -0.25, 1.5};
  EXPECT_THROW(tracker.record_flows(0, 0, negative, 0.0),
               util::PreconditionError);
  EXPECT_THROW(tracker.record_flows(0, 0, row, -1.0), util::PreconditionError);
  // A rejected row records nothing.
  EXPECT_EQ(tracker.transitions(0, 0, 0), 0);
  EXPECT_EQ(tracker.leaves(0, 0), 0);
}

TEST(Tracker, RecordFlowsMatchesScalarRecordTransition) {
  // One row call must leave every counter bit-identical to the scalar calls
  // it replaces: a record_transition per positive flow, then the leave.
  const std::vector<std::vector<double>> rows{
      {0.1, 0.0, 2.0 / 3.0, 1e-7},
      {0.0, 0.0, 0.0, 0.0},
      {3.3, 1.0 / 7.0, 0.0, 0.2},
      {0.3, 0.6, 0.9, 1e9 / 3.0},
  };
  const std::vector<double> leave{0.7, 0.0, 1.0 / 3.0, 5.5};
  const std::vector<int> from_order{0, 2, 1, 3, 2, 0, 3};

  Tracker by_row(2, 4);
  Tracker by_cell(2, 4);
  for (const int channel : {0, 1}) {
    for (const int from : from_order) {
      const auto f = static_cast<std::size_t>(from);
      const auto& flows = rows[f];
      by_row.record_flows(channel, from, flows, leave[f]);
      for (int to = 0; to < 4; ++to) {
        const double flow = flows[static_cast<std::size_t>(to)];
        if (flow > 0.0) by_cell.record_transition(channel, from, to, flow);
      }
      if (leave[f] > 0.0) {
        by_cell.record_transition(channel, from, std::nullopt, leave[f]);
      }
    }
    by_row.record_arrival(channel, 0, 3.0);
    by_cell.record_arrival(channel, 0, 3.0);
  }

  const std::vector<std::vector<double>> occupancy(2, std::vector<double>(4));
  const std::vector<double> uplink(2, 0.0);
  const core::TrackerReport a =
      by_row.harvest(0.0, 3600.0, occupancy, uplink, occupancy);
  const core::TrackerReport b =
      by_cell.harvest(0.0, 3600.0, occupancy, uplink, occupancy);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    EXPECT_EQ(a.channels[c].arrival_rate, b.channels[c].arrival_rate);
    EXPECT_EQ(a.channels[c].entry, b.channels[c].entry);
    for (std::size_t from = 0; from < 4; ++from) {
      for (std::size_t to = 0; to < 4; ++to) {
        EXPECT_EQ(a.channels[c].transfer(from, to),
                  b.channels[c].transfer(from, to))
            << "channel " << c << " cell " << from << "," << to;
      }
    }
  }
  // The all-zero row stays unobserved, as with no scalar calls at all.
  EXPECT_EQ(a.channels[0].transfer(1, 0), 0.0);
}

TEST(Tracker, WeightedRecordsAccumulateFractionalMass) {
  // The cohort engine reports expected flows, not unit events: weights are
  // fractional viewer mass. Integer getters round; harvest normalizes the
  // raw mass.
  Tracker tracker(1, 3);
  tracker.record_arrival(0, 0, 1.5);
  tracker.record_arrival(0, 1, 2.5);
  tracker.record_transition(0, 0, 1, 3.0);
  tracker.record_transition(0, 0, std::nullopt, 1.0);
  EXPECT_EQ(tracker.arrivals(0), 4);  // lround(1.5 + 2.5)
  EXPECT_EQ(tracker.transitions(0, 0, 1), 3);
  EXPECT_EQ(tracker.leaves(0, 0), 1);

  const std::vector<std::vector<double>> occupancy{{0.0, 0.0, 0.0}};
  const std::vector<double> uplink{0.0};
  const core::TrackerReport report =
      tracker.harvest(0.0, 3600.0, occupancy, uplink, occupancy);
  const core::ChannelObservation& obs = report.channels[0];
  EXPECT_NEAR(obs.arrival_rate, 4.0 / 3600.0, 1e-15);
  EXPECT_NEAR(obs.entry[0], 1.5 / 4.0, 1e-12);
  EXPECT_NEAR(obs.entry[1], 2.5 / 4.0, 1e-12);
  EXPECT_NEAR(obs.transfer(0, 1), 3.0 / 4.0, 1e-12);  // row mass 3 + 1
  EXPECT_THROW(tracker.record_arrival(0, 0, -0.5), util::PreconditionError);
}

// ------------------------------------------------- full-system lifecycle

cloud::CloudConfig cloud_config_for(const expr::ExperimentConfig& cfg) {
  cloud::CloudConfig cc;
  cc.sla = cloud::SlaTerms{cfg.vm_budget_per_hour, cfg.storage_budget_per_hour,
                           cfg.vm_clusters, cfg.nfs_clusters};
  cc.vm = cloud::VmSchedulerConfig{0.0, cfg.vod.vm_bandwidth};
  return cc;
}

/// The full deployment wired by hand (as integration_test does) so the
/// tests below can poke StreamingSystem internals mid-run.
struct SystemHarness {
  sim::Simulator sim;
  workload::Workload workload;
  cloud::CloudService cloud;
  StreamingSystem system;

  SystemHarness(const expr::ExperimentConfig& cfg, StreamingOptions options,
                std::unique_ptr<core::DemandPolicy> policy)
      : workload(cfg.workload, cfg.seed),
        cloud(sim, cloud_config_for(cfg)),
        system(sim, workload, cfg.vod, cloud,
               std::make_unique<core::Controller>(
                   cfg.vod,
                   core::ControllerConfig{cfg.vm_clusters, cfg.nfs_clusters,
                                          cfg.vm_budget_per_hour,
                                          cfg.storage_budget_per_hour},
                   std::move(policy)),
               options) {}
};

std::unique_ptr<core::DemandPolicy> model_policy(
    const expr::ExperimentConfig& cfg, core::StreamingMode mode) {
  core::DemandEstimatorConfig est;
  est.mode = mode;
  return std::make_unique<core::ModelBasedPolicy>(cfg.vod, est);
}

TEST(StreamingSystem, DepartWhileDownloadingAbortsPoolJob) {
  // Regression for the ghost-job leak: a peer departing mid-download left
  // its pool job in flight, holding a processor-sharing capacity share
  // forever and inflating cloud_bytes_served when it finally "completed"
  // into a missing peer.
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  cfg.workload.num_channels = 2;
  cfg.workload.total_arrival_rate = 0.05;
  cfg.workload.diurnal = workload::DiurnalPattern::flat();
  cfg.seed = 11;

  StreamingOptions options;
  options.mode = core::StreamingMode::kClientServer;
  options.bootstrap_plan = false;  // no capacity: every download stalls

  SystemHarness h(cfg, options,
                  model_policy(cfg, core::StreamingMode::kClientServer));
  h.system.start();
  h.sim.run_until(1800.0);  // before the first plan: pools still at zero

  // Precondition: every present peer is stuck mid-download holding a job.
  ASSERT_GT(h.system.current_users(), 0u);
  std::size_t downloading = 0;
  h.system.for_each_peer(
      [&](const Peer& peer) { downloading += peer.downloading ? 1u : 0u; });
  EXPECT_EQ(downloading, h.system.current_users());
  const auto pool_jobs = [&] {
    std::size_t jobs = 0;
    for (int c = 0; c < cfg.workload.num_channels; ++c) {
      for (int j = 0; j < cfg.vod.chunks_per_video; ++j) {
        jobs += h.system.pool(c, j).active_jobs();
      }
    }
    return jobs;
  };
  EXPECT_EQ(pool_jobs(), downloading);

  // Evict everyone: each mid-download departure must abort its pool job.
  std::size_t evicted = 0;
  for (int c = 0; c < cfg.workload.num_channels; ++c) {
    evicted += h.system.evict_channel(c);
  }
  EXPECT_EQ(evicted, downloading);
  EXPECT_EQ(h.system.current_users(), 0u);
  EXPECT_EQ(pool_jobs(), 0u) << "ghost jobs survived the departures";
  const SystemCounters& counters = h.system.metrics().counters;
  EXPECT_EQ(counters.arrivals, counters.departures);

  // Aborted jobs must never fire a completion into the missing peers.
  const long downloads_before = counters.chunk_downloads;
  h.sim.run_until(3000.0);
  EXPECT_EQ(counters.chunk_downloads, downloads_before);
}

TEST(StreamingSystem, ConservationInvariantsAfterGoldenPresetRun) {
  // Run a downsized live_event_cliff (the golden preset the cohort bench
  // scales up) into the middle of its 20:00 arrival wall, then check every
  // derived count against the peer map it is supposed to mirror.
  expr::ExperimentConfig cfg = sweep::ScenarioCatalog::global().make_config(
      "live_event_cliff", core::StreamingMode::kP2p);
  cfg.workload.total_arrival_rate = 0.04;  // downsized from the preset
  cfg.seed = 3;

  StreamingOptions options;
  options.mode = core::StreamingMode::kP2p;
  SystemHarness h(cfg, options, model_policy(cfg, core::StreamingMode::kP2p));
  h.system.start();
  h.sim.run_until(20.5 * 3600.0);  // mid-cliff: maximal churn

  const SystemCounters& counters = h.system.metrics().counters;
  EXPECT_GT(counters.arrivals, 0);
  EXPECT_EQ(counters.arrivals - counters.departures,
            static_cast<long>(h.system.current_users()));

  const int channels = cfg.workload.num_channels;
  const int chunks = cfg.vod.chunks_per_video;
  std::vector<std::vector<long>> owned(
      static_cast<std::size_t>(channels),
      std::vector<long>(static_cast<std::size_t>(chunks), 0));
  std::vector<std::vector<long>> at_position = owned;
  std::vector<double> uplink(static_cast<std::size_t>(channels), 0.0);
  std::vector<std::size_t> members(static_cast<std::size_t>(channels), 0);
  h.system.for_each_peer([&](const Peer& peer) {
    const auto ch = static_cast<std::size_t>(peer.channel);
    ++members[ch];
    uplink[ch] += peer.uplink;
    ++at_position[ch][static_cast<std::size_t>(peer.walk[peer.position])];
    for (int j = 0; j < chunks; ++j) {
      owned[ch][static_cast<std::size_t>(j)] +=
          peer.owned[static_cast<std::size_t>(j)] ? 1 : 0;
    }
  });
  for (int c = 0; c < channels; ++c) {
    const auto ch = static_cast<std::size_t>(c);
    EXPECT_EQ(h.system.channel_users(c), members[ch]);
    EXPECT_NEAR(h.system.uplink_sum(c), uplink[ch],
                1e-6 * std::max(1.0, uplink[ch]));
    for (int j = 0; j < chunks; ++j) {
      EXPECT_EQ(h.system.owner_count(c, j),
                owned[ch][static_cast<std::size_t>(j)]);
      EXPECT_EQ(h.system.position_count(c, j),
                at_position[ch][static_cast<std::size_t>(j)]);
    }
  }
}

TEST(StreamingSystem, GenerationGuardRejectsStaleHandlesAfterSlotReuse) {
  // The peer slab recycles slots through a LIFO free list, so a handle
  // held across a departure points at storage the next arrival will
  // reuse. The generation stamp in the handle's high 32 bits must make
  // every such stale handle miss — exactly the semantics the old
  // unordered_map::find gave for an erased id.
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  cfg.workload.num_channels = 2;
  cfg.workload.total_arrival_rate = 0.05;
  cfg.workload.diurnal = workload::DiurnalPattern::flat();
  cfg.seed = 11;

  StreamingOptions options;
  options.mode = core::StreamingMode::kClientServer;
  options.bootstrap_plan = false;  // no capacity: peers stall, none depart

  SystemHarness h(cfg, options,
                  model_policy(cfg, core::StreamingMode::kClientServer));
  h.system.start();
  h.sim.run_until(1800.0);
  ASSERT_GT(h.system.current_users(), 0u);

  // Live handles resolve to their peer.
  std::vector<std::uint64_t> old_handles;
  h.system.for_each_peer([&](const Peer& peer) {
    const std::uint64_t handle = h.system.peer_handle(peer);
    const Peer* found = h.system.find_peer(handle);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->id, peer.id);
    old_handles.push_back(handle);
  });

  // Evict everyone: every held handle must now miss.
  for (int c = 0; c < cfg.workload.num_channels; ++c) h.system.evict_channel(c);
  ASSERT_EQ(h.system.current_users(), 0u);
  for (const std::uint64_t handle : old_handles) {
    EXPECT_EQ(h.system.find_peer(handle), nullptr);
  }

  // Let fresh arrivals recycle the freed slots (LIFO free list: they are
  // reused before the slab ever grows).
  h.sim.run_until(5400.0);
  ASSERT_GT(h.system.current_users(), 0u);

  constexpr std::uint64_t kSlotMask = 0xffffffffull;
  std::size_t recycled = 0;
  h.system.for_each_peer([&](const Peer& peer) {
    const std::uint64_t handle = h.system.peer_handle(peer);
    const Peer* found = h.system.find_peer(handle);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->id, peer.id);
    for (const std::uint64_t stale : old_handles) {
      if ((stale & kSlotMask) == (handle & kSlotMask)) {
        ++recycled;
        EXPECT_NE(stale, handle) << "generation not bumped on reuse";
      }
    }
  });
  ASSERT_GT(recycled, 0u) << "no slot was recycled; the guard went untested";
  // Stale handles still miss even though their slots are live again.
  for (const std::uint64_t handle : old_handles) {
    EXPECT_EQ(h.system.find_peer(handle), nullptr);
  }
}

TEST(StreamingSystem, EvictionOrderIsAscendingPeerId) {
  // channel_peer_handles() is the snapshot evict_channel (and the
  // rebalance's standby-share pass) iterates, so its order decides the
  // departure order. Pin it: ascending monotone peer id, and exactly the
  // channel's live membership — never slab or hash order.
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  cfg.workload.num_channels = 2;
  cfg.workload.total_arrival_rate = 0.05;
  cfg.workload.diurnal = workload::DiurnalPattern::flat();
  cfg.seed = 7;

  StreamingOptions options;
  options.mode = core::StreamingMode::kClientServer;
  options.bootstrap_plan = false;

  SystemHarness h(cfg, options,
                  model_policy(cfg, core::StreamingMode::kClientServer));
  h.system.start();
  // Churn the slab first so slot order and id order disagree: fill, evict
  // (frees slots in id order, so the LIFO free list hands them back
  // *reversed*), then refill.
  h.sim.run_until(1800.0);
  for (int c = 0; c < cfg.workload.num_channels; ++c) h.system.evict_channel(c);
  h.sim.run_until(5400.0);
  ASSERT_GT(h.system.current_users(), 0u);

  for (int c = 0; c < cfg.workload.num_channels; ++c) {
    const std::vector<std::uint64_t> handles = h.system.channel_peer_handles(c);
    EXPECT_EQ(handles.size(), h.system.channel_users(c));
    std::uint64_t last_id = 0;
    for (const std::uint64_t handle : handles) {
      const Peer* peer = h.system.find_peer(handle);
      ASSERT_NE(peer, nullptr);
      EXPECT_EQ(peer->channel, c);
      EXPECT_GT(peer->id, last_id) << "membership not ascending by id";
      last_id = peer->id;
    }
  }
}

/// The rarest-first split recomputed with no incremental state: rebuild
/// every member's ownership from its bitmap, then run the waterfall and
/// the standby split in ascending peer-id order. Returns the expected peer
/// capacity of each chunk pool of `channel`.
std::vector<double> bitmap_waterfall(StreamingSystem& system, int channel,
                                     int chunks, double streaming_rate) {
  const auto J = static_cast<std::size_t>(chunks);
  std::vector<const Peer*> members;
  for (const std::uint64_t handle : system.channel_peer_handles(channel)) {
    members.push_back(system.find_peer(handle));
  }
  std::vector<double> remaining;
  std::vector<std::vector<std::size_t>> owners(J);
  for (std::size_t p = 0; p < members.size(); ++p) {
    remaining.push_back(members[p]->uplink);
    for (std::size_t j = 0; j < J; ++j) {
      if (members[p]->owned[j]) owners[j].push_back(p);
    }
  }
  std::vector<int> order(J);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return owners[static_cast<std::size_t>(a)].size() <
           owners[static_cast<std::size_t>(b)].size();
  });
  std::vector<double> alloc(J, 0.0);
  for (const int chunk : order) {
    const auto j = static_cast<std::size_t>(chunk);
    const double demand =
        static_cast<double>(system.pool(channel, chunk).active_jobs()) *
        streaming_rate;
    if (demand <= 0.0 || owners[j].empty()) continue;
    double available = 0.0;
    for (const std::size_t p : owners[j]) available += remaining[p];
    if (available <= 0.0) continue;
    const double supply = std::min(demand, available);
    const double keep = 1.0 - supply / available;
    for (const std::size_t p : owners[j]) remaining[p] *= keep;
    alloc[j] = supply;
  }
  for (std::size_t p = 0; p < members.size(); ++p) {
    const int owned =
        std::accumulate(members[p]->owned.begin(), members[p]->owned.end(), 0);
    if (remaining[p] <= 0.0 || owned == 0) continue;
    for (std::size_t j = 0; j < J; ++j) {
      if (members[p]->owned[j]) alloc[j] += remaining[p] / owned;
    }
  }
  return alloc;
}

TEST(StreamingSystem, OwnerListsMatchBitmapRebuildUnderChurn) {
  // The rebalance reads per-pool owner lists kept on chunk completion and
  // departure instead of rebuilding them from every member's bitmap each
  // tick. Run a downsized flash_crowd P2P day through its noon spike,
  // evict one channel mid-run (mid-download departures, and a LIFO free
  // list that hands the freed slots back reversed), and at several 30 s
  // tick instants compare the lists and every pool's peer capacity with
  // a from-scratch bitmap waterfall — exactly, not approximately. The
  // tick's work counters must match the lists it read.
  expr::ExperimentConfig cfg = sweep::ScenarioCatalog::global().make_config(
      "flash_crowd", core::StreamingMode::kP2p);
  cfg.workload.num_channels = 4;
  cfg.workload.total_arrival_rate = 0.15;  // downsized from the preset
  cfg.seed = 17;

  StreamingOptions options;
  options.mode = core::StreamingMode::kP2p;
  SystemHarness h(cfg, options, model_policy(cfg, core::StreamingMode::kP2p));
  h.system.start();

  const int channels = cfg.workload.num_channels;
  const int chunks = cfg.vod.chunks_per_video;
  std::size_t slot_order_differs = 0;
  std::size_t peer_supplied = 0;
  const auto check_tick = [&](double tick) {
    ASSERT_EQ(std::fmod(tick, options.rebalance_interval), 0.0);
    h.sim.run_until(tick - 1e-6);
    const RebalanceCounters before = h.system.rebalance_counters();
    h.sim.run_until(tick);  // exactly the tick at `tick` has run since
    ASSERT_EQ(h.system.rebalance_counters().ticks, before.ticks + 1);
    std::uint64_t visits = 0;
    std::uint64_t cells = 0;
    for (int c = 0; c < channels; ++c) {
      const std::vector<std::uint64_t> members = h.system.channel_peer_handles(c);
      const std::vector<double> expected =
          bitmap_waterfall(h.system, c, chunks, cfg.vod.streaming_rate);
      if (!members.empty()) cells += members.size() * static_cast<std::size_t>(chunks);
      for (int j = 0; j < chunks; ++j) {
        std::vector<std::uint64_t> owners;
        for (const std::uint64_t handle : members) {
          if (h.system.find_peer(handle)->owned[static_cast<std::size_t>(j)]) {
            owners.push_back(handle);
          }
        }
        const std::vector<std::uint64_t> kept = h.system.owner_handles(c, j);
        EXPECT_EQ(kept, owners) << "channel " << c << " chunk " << j << " t=" << tick;
        // Read once by the standby split, once more by the waterfall when
        // the chunk has demand.
        visits += kept.size() * (h.system.pool(c, j).active_jobs() > 0 ? 2u : 1u);
        if (!std::is_sorted(kept.begin(), kept.end(), [](auto a, auto b) {
              return (a & 0xffffffffull) < (b & 0xffffffffull);
            })) {
          ++slot_order_differs;
        }
        EXPECT_EQ(h.system.pool(c, j).peer_capacity(),
                  expected[static_cast<std::size_t>(j)])
            << "channel " << c << " chunk " << j << " t=" << tick;
        peer_supplied += expected[static_cast<std::size_t>(j)] > 0.0 ? 1u : 0u;
      }
    }
    EXPECT_EQ(h.system.rebalance_visits() - before.visits, visits) << "t=" << tick;
    EXPECT_EQ(h.system.rebalance_counters().member_cells - before.member_cells, cells);
  };

  for (const double tick : {10.5 * 3600.0, 11.5 * 3600.0 + 30.0}) check_tick(tick);

  // Mid-spike eviction: some evicted peers are mid-download.
  h.sim.run_until(11.75 * 3600.0 + 10.0);
  std::size_t downloading = 0;
  for (const std::uint64_t handle : h.system.channel_peer_handles(0)) {
    downloading += h.system.find_peer(handle)->downloading ? 1u : 0u;
  }
  ASSERT_GT(downloading, 0u);
  ASSERT_GT(h.system.evict_channel(0), downloading);
  for (int j = 0; j < chunks; ++j) EXPECT_TRUE(h.system.owner_handles(0, j).empty());

  for (const double tick : {11.75 * 3600.0 + 30.0, 12.0 * 3600.0 + 330.0,
                            12.5 * 3600.0 + 90.0, 13.5 * 3600.0 + 30.0}) {
    check_tick(tick);
  }
  EXPECT_GT(slot_order_differs, 0u) << "slot order never disagreed with id order";
  EXPECT_GT(peer_supplied, 0u) << "no pool ever got peer capacity";
}

/// Records every report the controller is asked to estimate from, so the
/// window-labelling test can see bootstrap and harvest side by side.
class ProbePolicy final : public core::DemandPolicy {
 public:
  ProbePolicy(int channels, int chunks,
              std::vector<std::pair<double, double>>* windows)
      : channels_(channels), chunks_(chunks), windows_(windows) {}

  core::DemandSet estimate(const core::TrackerReport& report) override {
    windows_->emplace_back(report.interval_start, report.interval_length);
    core::DemandSet demand;
    demand.cloud_demand.assign(
        static_cast<std::size_t>(channels_),
        std::vector<double>(static_cast<std::size_t>(chunks_), 0.0));
    return demand;
  }
  std::string name() const override { return "probe"; }

 private:
  int channels_;
  int chunks_;
  std::vector<std::pair<double, double>>* windows_;
};

TEST(StreamingSystem, BootstrapAndHarvestAgreeOnWindowLabels) {
  // bootstrap_report() stamps interval_start = now (the upcoming-window
  // forecast) while the hourly harvest stamps now - T (the just-measured
  // window). The asymmetry is deliberate: both describe the *start* of the
  // window they label, so the t=0 bootstrap and the first harvest name the
  // same window [0, T) and no consumer ever sees a negative time.
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  cfg.workload.num_channels = 2;
  cfg.workload.total_arrival_rate = 0.02;
  cfg.workload.diurnal = workload::DiurnalPattern::flat();
  cfg.seed = 5;

  StreamingOptions options;
  options.mode = core::StreamingMode::kClientServer;
  ASSERT_TRUE(options.bootstrap_plan);

  std::vector<std::pair<double, double>> windows;
  SystemHarness h(cfg, options,
                  std::make_unique<ProbePolicy>(cfg.workload.num_channels,
                                                cfg.vod.chunks_per_video,
                                                &windows));
  const double T = options.provisioning_interval;
  const core::TrackerReport prior = h.system.bootstrap_report();
  EXPECT_DOUBLE_EQ(prior.interval_start, 0.0);
  EXPECT_DOUBLE_EQ(prior.interval_length, T);

  h.system.start();
  h.sim.run_until(2.5 * T);
  ASSERT_EQ(windows.size(), 3u);  // bootstrap + harvests at T and 2T
  EXPECT_DOUBLE_EQ(windows[0].first, 0.0);  // forecast of [0, T)
  EXPECT_DOUBLE_EQ(windows[1].first, 0.0);  // measurement of [0, T)
  EXPECT_DOUBLE_EQ(windows[2].first, T);
  for (const auto& [start, length] : windows) {
    EXPECT_DOUBLE_EQ(length, T);
    EXPECT_GE(start, 0.0);
  }
}

}  // namespace
}  // namespace cloudmedia::vod
