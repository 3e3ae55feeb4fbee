#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/controller.h"
#include "core/jackson.h"
#include "util/check.h"
#include "workload/viewing.h"

namespace cloudmedia::core {
namespace {

ChannelObservation make_observation(double arrival_rate, int j = 20,
                                    double uplink = 50'000.0) {
  const workload::ViewingBehavior behavior;
  ChannelObservation obs;
  obs.arrival_rate = arrival_rate;
  obs.transfer = behavior.transfer_matrix(j);
  obs.entry = behavior.entry_distribution(j);
  obs.occupancy.assign(static_cast<std::size_t>(j), 0.0);
  obs.served_cloud_bandwidth.assign(static_cast<std::size_t>(j), 0.0);
  obs.mean_peer_uplink = uplink;
  return obs;
}

TrackerReport make_report(std::vector<double> rates) {
  TrackerReport report;
  report.interval_start = 0.0;
  report.interval_length = 3600.0;
  for (double r : rates) report.channels.push_back(make_observation(r));
  return report;
}

ControllerConfig paper_controller_config() {
  return ControllerConfig{paper_vm_clusters(), paper_nfs_clusters(), 100.0, 1.0};
}

// --------------------------------------------------------- DemandEstimator

TEST(DemandEstimator, ClientServerDemandEqualsCapacity) {
  DemandEstimatorConfig cfg;
  cfg.mode = StreamingMode::kClientServer;
  const DemandEstimator estimator(VodParameters{}, cfg);
  const ChannelDemandEstimate est = estimator.estimate(make_observation(0.3));
  for (std::size_t i = 0; i < est.cloud_demand.size(); ++i) {
    EXPECT_DOUBLE_EQ(est.cloud_demand[i], est.capacity.chunks[i].bandwidth);
    EXPECT_DOUBLE_EQ(est.peer_supply[i], 0.0);
  }
  EXPECT_GT(est.total_cloud_demand, 0.0);
}

TEST(DemandEstimator, P2pDemandNeverExceedsClientServer) {
  DemandEstimatorConfig cs_cfg, p2p_cfg;
  cs_cfg.mode = StreamingMode::kClientServer;
  p2p_cfg.mode = StreamingMode::kP2p;
  const DemandEstimator cs(VodParameters{}, cs_cfg);
  const DemandEstimator p2p(VodParameters{}, p2p_cfg);
  const ChannelObservation obs = make_observation(0.3);
  EXPECT_LE(p2p.estimate(obs).total_cloud_demand,
            cs.estimate(obs).total_cloud_demand + 1e-6);
}

TEST(DemandEstimator, P2pSavingsGrowWithUplink) {
  DemandEstimatorConfig cfg;
  cfg.mode = StreamingMode::kP2p;
  const DemandEstimator estimator(VodParameters{}, cfg);
  double previous = 1e300;
  for (double u : {0.0, 25'000.0, 50'000.0, 75'000.0}) {
    const double total =
        estimator.estimate(make_observation(0.3, 20, u)).total_cloud_demand;
    EXPECT_LE(total, previous + 1e-6);
    previous = total;
  }
}

TEST(DemandEstimator, OccupancyFloorKeepsLingeringViewersServed) {
  DemandEstimatorConfig cfg;
  cfg.occupancy_floor = true;
  const DemandEstimator with_floor(VodParameters{}, cfg);
  cfg.occupancy_floor = false;
  const DemandEstimator without_floor(VodParameters{}, cfg);

  ChannelObservation obs = make_observation(0.0);  // no fresh arrivals
  std::fill(obs.occupancy.begin(), obs.occupancy.end(), 10.0);

  EXPECT_DOUBLE_EQ(without_floor.estimate(obs).total_cloud_demand, 0.0);
  const ChannelDemandEstimate floored = with_floor.estimate(obs);
  EXPECT_GT(floored.total_cloud_demand, 0.0);
  // Floor implies at least n_i/T0 arrivals per chunk.
  for (double l : floored.arrival_rates) {
    EXPECT_GE(l, 10.0 / 300.0 - 1e-12);
  }
}

TEST(DemandEstimator, LiteralEqnFiveCapRaisesCloudDemand) {
  // Plumb check for the Eqn. (5) cap option: the verbatim m·r cap leaves
  // peers nearly unused, so the cloud residual grows to almost the full
  // client-server requirement.
  DemandEstimatorConfig bandwidth_cfg;
  bandwidth_cfg.mode = StreamingMode::kP2p;
  DemandEstimatorConfig literal_cfg = bandwidth_cfg;
  literal_cfg.p2p.demand_cap = P2pDemandCap::kStreamingRateLiteral;
  const DemandEstimator bandwidth(VodParameters{}, bandwidth_cfg);
  const DemandEstimator literal(VodParameters{}, literal_cfg);
  const ChannelObservation obs = make_observation(0.3);
  const double with_bandwidth_cap = bandwidth.estimate(obs).total_cloud_demand;
  const double with_literal_cap = literal.estimate(obs).total_cloud_demand;
  EXPECT_GT(with_literal_cap, 3.0 * with_bandwidth_cap);
  // Literal cap bounds offload at r/R = 4 % of the requirement.
  double requirement = 0.0;
  for (const ChunkCapacity& c : literal.estimate(obs).capacity.chunks) {
    requirement += c.bandwidth;
  }
  EXPECT_GT(with_literal_cap, requirement * 0.95);
}

TEST(DemandEstimator, ZeroChannelZeroDemand) {
  const DemandEstimator estimator(VodParameters{}, DemandEstimatorConfig{});
  EXPECT_DOUBLE_EQ(estimator.estimate(make_observation(0.0)).total_cloud_demand,
                   0.0);
}

TEST(DemandEstimator, RejectsMismatchedDimensions) {
  const DemandEstimator estimator(VodParameters{}, DemandEstimatorConfig{});
  ChannelObservation obs = make_observation(0.1, 7);  // J mismatch
  EXPECT_THROW((void)estimator.estimate(obs), util::PreconditionError);
}

// --------------------------------------------------------------- policies

TEST(ModelBasedPolicy, ProducesEstimatesPerChannel) {
  ModelBasedPolicy policy(VodParameters{}, DemandEstimatorConfig{});
  const DemandSet set = policy.estimate(make_report({0.1, 0.4}));
  ASSERT_EQ(set.cloud_demand.size(), 2u);
  ASSERT_EQ(set.estimates.size(), 2u);
  EXPECT_GT(set.estimates[1].total_cloud_demand,
            set.estimates[0].total_cloud_demand);
}

TEST(ReactivePolicy, ScalesLastIntervalUsage) {
  ReactivePolicy policy(VodParameters{}, 1.5);
  TrackerReport report = make_report({0.1});
  std::fill(report.channels[0].served_cloud_bandwidth.begin(),
            report.channels[0].served_cloud_bandwidth.end(), 2e6);
  const DemandSet set = policy.estimate(report);
  for (double d : set.cloud_demand[0]) EXPECT_DOUBLE_EQ(d, 3e6);
  EXPECT_TRUE(set.estimates.empty());
}

TEST(ReactivePolicy, RequiresMarginAtLeastOne) {
  EXPECT_THROW(ReactivePolicy(VodParameters{}, 0.5), util::PreconditionError);
}

TEST(StaticPolicy, AlwaysReturnsTheFixedPlan) {
  std::vector<std::vector<double>> fixed{{1e6, 2e6}, {0.0, 3e6}};
  StaticPolicy policy(fixed);
  TrackerReport report;
  report.channels.resize(2);
  EXPECT_EQ(policy.estimate(report).cloud_demand, fixed);
  EXPECT_EQ(policy.estimate(report).cloud_demand, fixed);
}

TEST(ClairvoyantPolicy, UsesFutureRateNotMeasured) {
  ClairvoyantPolicy policy(VodParameters{}, DemandEstimatorConfig{},
                           [](int, double, double) { return 0.5; });
  // Measured rate is 0; the oracle still provisions for 0.5 users/s.
  const DemandSet set = policy.estimate(make_report({0.0}));
  double total = 0.0;
  for (double d : set.cloud_demand[0]) total += d;
  EXPECT_GT(total, 0.0);
}

TEST(ClairvoyantPolicy, QueriesTheUpcomingInterval) {
  double seen_t0 = -1.0, seen_t1 = -1.0;
  ClairvoyantPolicy policy(VodParameters{}, DemandEstimatorConfig{},
                           [&](int, double t0, double t1) {
                             seen_t0 = t0;
                             seen_t1 = t1;
                             return 0.1;
                           });
  TrackerReport report = make_report({0.0});
  report.interval_start = 7200.0;
  report.interval_length = 3600.0;
  (void)policy.estimate(report);
  EXPECT_DOUBLE_EQ(seen_t0, 10'800.0);  // start of the planned interval
  EXPECT_DOUBLE_EQ(seen_t1, 14'400.0);
}

TEST(SeasonalPolicy, FallsBackToPersistenceWithoutHistory) {
  SeasonalPolicy seasonal(VodParameters{}, DemandEstimatorConfig{});
  ModelBasedPolicy persistence(VodParameters{}, DemandEstimatorConfig{});
  TrackerReport report = make_report({0.2});
  report.interval_start = 0.0;
  const DemandSet a = seasonal.estimate(report);
  const DemandSet b = persistence.estimate(report);
  ASSERT_EQ(a.cloud_demand.size(), b.cloud_demand.size());
  for (std::size_t i = 0; i < a.cloud_demand[0].size(); ++i) {
    EXPECT_NEAR(a.cloud_demand[0][i], b.cloud_demand[0][i], 1e-6);
  }
}

/// What ModelBasedPolicy plans for one channel whose measured rate is
/// `rate`: the demand a model-driven policy must plan when it predicts
/// `rate`.
std::vector<double> model_demand_at(double rate, double interval_start) {
  ModelBasedPolicy reference(VodParameters{}, DemandEstimatorConfig{});
  TrackerReport report = make_report({rate});
  report.interval_start = interval_start;
  return reference.estimate(report).cloud_demand[0];
}

TEST(SeasonalPolicy, LearnsDayOverDaySlotRates) {
  SeasonalPolicy policy(VodParameters{}, DemandEstimatorConfig{});
  // Day 1: hour 5 measures 0.4, hour 6 measures 0.9.
  TrackerReport hour5 = make_report({0.4});
  hour5.interval_start = 5.0 * 3600.0;
  (void)policy.estimate(hour5);
  TrackerReport hour6 = make_report({0.9});
  hour6.interval_start = 6.0 * 3600.0;
  (void)policy.estimate(hour6);

  // Next day, hour 5, measured only 0.1: the plan for hour 6 blends in
  // yesterday's hour-6 rate (0.9).
  TrackerReport next_day = make_report({0.1});
  next_day.interval_start = 86'400.0 + 5.0 * 3600.0;
  const double blend = SeasonalPolicy::kBlend;
  EXPECT_EQ(policy.estimate(next_day).cloud_demand[0],
            model_demand_at((1.0 - blend) * 0.1 + blend * 0.9,
                            next_day.interval_start));
}

TEST(SeasonalPolicy, EwmaSmoothsAcrossDays) {
  SeasonalPolicy policy(VodParameters{}, DemandEstimatorConfig{});
  for (int day = 0; day < 2; ++day) {
    TrackerReport report = make_report({day == 0 ? 0.2 : 0.6});
    report.interval_start = day * 86'400.0 + 3.0 * 3600.0;
    (void)policy.estimate(report);
  }
  // Day 3, hour 2 plans hour 3 from the smoothed slot rate.
  const double ewma = SeasonalPolicy::kEwma;
  const double slot3 = (1.0 - ewma) * 0.2 + ewma * 0.6;
  TrackerReport hour2 = make_report({0.3});
  hour2.interval_start = 2.0 * 86'400.0 + 2.0 * 3600.0;
  const double blend = SeasonalPolicy::kBlend;
  EXPECT_EQ(policy.estimate(hour2).cloud_demand[0],
            model_demand_at((1.0 - blend) * 0.3 + blend * slot3,
                            hour2.interval_start));
}

// -------------------------------------------------------------- controller

TEST(Controller, PlanSolvesBothProblemsWithinBudgets) {
  Controller controller(
      VodParameters{}, paper_controller_config(),
      std::make_unique<ModelBasedPolicy>(VodParameters{},
                                         DemandEstimatorConfig{}));
  const ProvisioningPlan plan = controller.plan(make_report({0.2, 0.1, 0.05}));

  EXPECT_TRUE(plan.storage.feasible);
  EXPECT_TRUE(plan.vm.feasible);
  EXPECT_LE(plan.vm.cost_per_hour, 100.0 + 1e-9);
  EXPECT_LE(plan.storage_cost_rate, 1.0 + 1e-9);
  EXPECT_GT(plan.reserved_bandwidth, 0.0);
}

TEST(Controller, RealizedBandwidthMatchesAllocation) {
  Controller controller(
      VodParameters{}, paper_controller_config(),
      std::make_unique<ModelBasedPolicy>(VodParameters{},
                                         DemandEstimatorConfig{}));
  const ProvisioningPlan plan = controller.plan(make_report({0.2, 0.1}));

  double from_z = 0.0;
  for (const auto& row : plan.vm.z) {
    from_z += std::accumulate(row.begin(), row.end(), 0.0);
  }
  double from_chunks = 0.0;
  for (const auto& channel : plan.chunk_cloud_bandwidth) {
    from_chunks += std::accumulate(channel.begin(), channel.end(), 0.0);
  }
  EXPECT_NEAR(from_chunks, from_z * 1'250'000.0, 1.0);
  EXPECT_NEAR(plan.reserved_bandwidth, from_chunks, 1.0);
}

TEST(Controller, EveryChunkIsStored) {
  // The cloud is the only persistent source of the videos (Sec. III-B):
  // zero-demand chunks still get an NFS slot.
  Controller controller(
      VodParameters{}, paper_controller_config(),
      std::make_unique<ModelBasedPolicy>(VodParameters{},
                                         DemandEstimatorConfig{}));
  const ProvisioningPlan plan = controller.plan(make_report({0.0, 0.2}));
  for (int f : plan.storage.cluster_of) EXPECT_GE(f, 0);
  // 2 channels × 20 chunks × 15 MB = 600 MB stored.
  EXPECT_EQ(plan.storage.cluster_of.size(), 40u);
}

TEST(Controller, PaperScaleStorageCostIsTiny) {
  // 20 channels: 6 GB stored => ~$0.0007/h (the paper's ~$0.018/day).
  std::vector<double> rates(20, 0.05);
  Controller controller(
      VodParameters{}, paper_controller_config(),
      std::make_unique<ModelBasedPolicy>(VodParameters{},
                                         DemandEstimatorConfig{}));
  const ProvisioningPlan plan = controller.plan(make_report(rates));
  EXPECT_TRUE(plan.storage.feasible);
  EXPECT_LT(plan.storage_cost_rate * 24.0, 0.05);  // well under a nickel/day
  EXPECT_GT(plan.storage_cost_rate, 0.0);
}

TEST(Controller, InstanceBillNeverBelowFractionalCost) {
  Controller controller(
      VodParameters{}, paper_controller_config(),
      std::make_unique<ModelBasedPolicy>(VodParameters{},
                                         DemandEstimatorConfig{}));
  const ProvisioningPlan plan = controller.plan(make_report({0.3}));
  EXPECT_GE(plan.vm_cost_rate, plan.vm.cost_per_hour - 1e-9);
}

TEST(Controller, P2pPlanCheaperThanClientServer) {
  DemandEstimatorConfig cs_cfg, p2p_cfg;
  cs_cfg.mode = StreamingMode::kClientServer;
  p2p_cfg.mode = StreamingMode::kP2p;
  Controller cs(VodParameters{}, paper_controller_config(),
                std::make_unique<ModelBasedPolicy>(VodParameters{}, cs_cfg));
  Controller p2p(VodParameters{}, paper_controller_config(),
                 std::make_unique<ModelBasedPolicy>(VodParameters{}, p2p_cfg));
  const TrackerReport report = make_report({0.2, 0.1});
  EXPECT_LT(p2p.plan(report).vm_cost_rate, cs.plan(report).vm_cost_rate);
}

TEST(Controller, RequiresPolicy) {
  EXPECT_THROW(Controller(VodParameters{}, paper_controller_config(), nullptr),
               util::PreconditionError);
}

TEST(Controller, ValidatesConfig) {
  ControllerConfig cfg = paper_controller_config();
  cfg.vm_clusters.clear();
  EXPECT_THROW(Controller(VodParameters{}, cfg,
                          std::make_unique<ModelBasedPolicy>(
                              VodParameters{}, DemandEstimatorConfig{})),
               util::PreconditionError);
}

TEST(DemandEstimator, ToleratesClosedMeasuredTransferMatrix) {
  // Regression: a quiet hour can measure a P-hat in which every observed
  // departure from a chunk leads to another chunk (rows sum to 1). The raw
  // traffic equations are singular there — users that "never leave" have
  // unbounded equilibrium demand. The estimator must damp the matrix and
  // return finite, serviceable demand instead of throwing.
  const int j = 4;
  ChannelObservation obs;
  obs.arrival_rate = 0.01;
  obs.transfer = util::Matrix(j, j);
  // A closed 4-cycle: 0->1->2->3->0, no leave probability anywhere.
  for (int i = 0; i < j; ++i) {
    obs.transfer(static_cast<std::size_t>(i),
                 static_cast<std::size_t>((i + 1) % j)) = 1.0;
  }
  obs.entry.assign(static_cast<std::size_t>(j), 1.0 / j);
  obs.occupancy.assign(static_cast<std::size_t>(j), 2.0);
  obs.mean_peer_uplink = 50'000.0;

  VodParameters params;
  params.chunks_per_video = j;
  for (const auto mode : {StreamingMode::kClientServer, StreamingMode::kP2p}) {
    DemandEstimatorConfig config;
    config.mode = mode;
    const DemandEstimator estimator(params, config);
    ChannelDemandEstimate est;
    ASSERT_NO_THROW(est = estimator.estimate(obs));
    for (double lambda : est.arrival_rates) {
      EXPECT_TRUE(std::isfinite(lambda));
      EXPECT_GE(lambda, 0.0);
      // The damping bounds expected visits per entry at 1000.
      EXPECT_LE(lambda, obs.arrival_rate * 1000.0 + 2.0 / 300.0 + 1e-9);
    }
    EXPECT_TRUE(std::isfinite(est.total_cloud_demand));
    EXPECT_GE(est.total_cloud_demand, 0.0);
  }
}

TEST(DemandEstimator, WellMeasuredMatrixIsNotDamped) {
  // The paper's behaviour matrix leaks ~0.12 per row; damping must leave
  // it bit-identical (the scale branch should not trigger).
  const workload::ViewingBehavior behavior;
  ChannelObservation obs = make_observation(0.05);
  VodParameters params;
  const DemandEstimator estimator(params, {});
  const ChannelDemandEstimate est = estimator.estimate(obs);

  const std::vector<double> reference = solve_traffic_equations(
      obs.transfer, obs.entry, obs.arrival_rate);
  ASSERT_EQ(est.arrival_rates.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_DOUBLE_EQ(est.arrival_rates[i], reference[i]);
  }
}

void expect_bitwise_equal(const ChannelDemandEstimate& a,
                          const ChannelDemandEstimate& b) {
  EXPECT_EQ(a.arrival_rates, b.arrival_rates);
  EXPECT_EQ(a.peer_supply, b.peer_supply);
  EXPECT_EQ(a.cloud_demand, b.cloud_demand);
  EXPECT_EQ(a.total_cloud_demand, b.total_cloud_demand);
  EXPECT_EQ(a.capacity.total_servers, b.capacity.total_servers);
  EXPECT_EQ(a.capacity.total_bandwidth, b.capacity.total_bandwidth);
  EXPECT_EQ(a.capacity.total_arrival_rate, b.capacity.total_arrival_rate);
  ASSERT_EQ(a.capacity.chunks.size(), b.capacity.chunks.size());
  for (std::size_t i = 0; i < a.capacity.chunks.size(); ++i) {
    EXPECT_EQ(a.capacity.chunks[i].arrival_rate, b.capacity.chunks[i].arrival_rate);
    EXPECT_EQ(a.capacity.chunks[i].servers, b.capacity.chunks[i].servers);
    EXPECT_EQ(a.capacity.chunks[i].bandwidth, b.capacity.chunks[i].bandwidth);
    EXPECT_EQ(a.capacity.chunks[i].expected_in_queue,
              b.capacity.chunks[i].expected_in_queue);
  }
}

TEST(EstimateChannels, SharedFactorsEqualPerChannelEstimates) {
  // The bootstrap report's shape at paper size: 20 channels with Zipf-like
  // rates, every channel on the same ground-truth P. Channels 7-9 report
  // one perturbed P, so the run breaks twice: channels 0-6, 7-9 and 10-19
  // are each factored once and solved as one batch. Every third channel
  // has a measured occupancy, which the floor folds in per channel.
  std::vector<double> rates;
  for (int c = 0; c < 20; ++c) rates.push_back(0.3 / (c + 1));
  TrackerReport report = make_report(rates);
  for (std::size_t c = 7; c <= 9; ++c) report.channels[c].transfer(2, 5) += 1e-3;
  for (std::size_t c = 0; c < 20; c += 3) {
    for (std::size_t i = 0; i < 20; ++i) {
      report.channels[c].occupancy[i] = static_cast<double>((c + 3 * i) % 7);
    }
  }
  const std::uint64_t runs = 3;
  const std::uint64_t j = 20;
  for (const auto mode : {StreamingMode::kP2p, StreamingMode::kClientServer}) {
    DemandEstimatorConfig config;
    config.mode = mode;
    const DemandEstimator estimator(VodParameters{}, config);
    const auto predicted = [](std::size_t c, double measured) {
      return measured * (1.0 + 0.1 * static_cast<double>(c));
    };
    std::vector<std::size_t> calls;
    const DemandSet set = estimate_channels(
        estimator, report, [&](std::size_t c, double measured) {
          calls.push_back(c);
          return predicted(c, measured);
        });
    // Once per channel, in ascending order: the seasonal and forecast
    // policies keep per-channel state in `rate`.
    std::vector<std::size_t> ascending(report.channels.size());
    std::iota(ascending.begin(), ascending.end(), std::size_t{0});
    EXPECT_EQ(calls, ascending);
    ASSERT_EQ(set.estimates.size(), report.channels.size());
    for (std::size_t c = 0; c < report.channels.size(); ++c) {
      SCOPED_TRACE(c);
      const ChannelObservation& obs = report.channels[c];
      const ChannelDemandEstimate own =
          estimator.estimate(obs, predicted(c, obs.arrival_rate));
      expect_bitwise_equal(set.estimates[c], own);
      EXPECT_EQ(set.cloud_demand[c], own.cloud_demand);
    }
    // One pass per system and run: each run's channels are its columns.
    const std::uint64_t systems = mode == StreamingMode::kP2p ? 1 + j : 1;
    EXPECT_EQ(set.substitution_passes, runs * systems);
  }
}

TEST(EstimateChannels, BootstrapPlanMakesOnePassPerSystem) {
  // Every channel of the bootstrap report carries the ground-truth P, so
  // the P2P plan solves the traffic equations and Proposition 1's J
  // systems once each: 1 + J passes of C columns, not C · (1 + J) passes.
  const std::size_t channels = 20;
  const std::uint64_t j = 20;
  const TrackerReport report = make_report(std::vector<double>(channels, 0.1));
  DemandEstimatorConfig config;
  config.mode = StreamingMode::kP2p;
  ModelBasedPolicy policy(VodParameters{}, config);
  EXPECT_EQ(policy.estimate(report).substitution_passes, 1 + j);
}

}  // namespace
}  // namespace cloudmedia::core
