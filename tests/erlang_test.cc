#include <gtest/gtest.h>

#include <cmath>

#include "core/capacity.h"
#include "core/erlang.h"
#include "core/params.h"
#include "util/check.h"

namespace cloudmedia::core {
namespace {

// ------------------------------------------------------------- Erlang B/C

TEST(ErlangB, ZeroServersBlocksEverything) {
  EXPECT_DOUBLE_EQ(erlang_b(0, 5.0), 1.0);
}

TEST(ErlangB, SingleServerClosedForm) {
  // B(1, a) = a / (1 + a).
  for (double a : {0.1, 0.5, 1.0, 2.0, 10.0}) {
    EXPECT_NEAR(erlang_b(1, a), a / (1.0 + a), 1e-12);
  }
}

TEST(ErlangB, KnownValues) {
  // Hand-computed by the textbook recursion.
  EXPECT_NEAR(erlang_b(2, 1.0), 0.2, 1e-12);
  EXPECT_NEAR(erlang_b(3, 2.0), 0.8 / 3.8, 1e-12);
}

TEST(ErlangB, DecreasesWithServers) {
  for (int m = 1; m < 30; ++m) {
    EXPECT_LT(erlang_b(m + 1, 5.0), erlang_b(m, 5.0));
  }
}

TEST(ErlangB, IncreasesWithLoad) {
  EXPECT_LT(erlang_b(5, 1.0), erlang_b(5, 2.0));
  EXPECT_LT(erlang_b(5, 2.0), erlang_b(5, 4.0));
}

TEST(ErlangB, StableForLargeLoads) {
  // The naive a^m/m! formula overflows near m = 170; the recursion must not.
  const double b = erlang_b(1000, 900.0);
  EXPECT_GT(b, 0.0);
  EXPECT_LT(b, 1.0);
  EXPECT_FALSE(std::isnan(b));
}

TEST(ErlangC, SingleServerEqualsUtilization) {
  // C(1, a) = a for a < 1 (M/M/1 waiting probability = ρ).
  for (double a : {0.1, 0.3, 0.7, 0.95}) {
    EXPECT_NEAR(erlang_c(1, a), a, 1e-12);
  }
}

TEST(ErlangC, KnownTwoServerValue) {
  // C(2, 1) = 1/3.
  EXPECT_NEAR(erlang_c(2, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(ErlangC, KnownThreeServerValue) {
  // C(3, 2) = 4/9.
  EXPECT_NEAR(erlang_c(3, 2.0), 4.0 / 9.0, 1e-9);
}

TEST(ErlangC, AtLeastErlangB) {
  for (int m : {1, 2, 5, 10}) {
    const double a = 0.8 * m;
    EXPECT_GE(erlang_c(m, a), erlang_b(m, a));
  }
}

TEST(ErlangC, RequiresStability) {
  EXPECT_THROW((void)erlang_c(2, 2.0), util::PreconditionError);
  EXPECT_THROW((void)erlang_c(2, 3.0), util::PreconditionError);
}

// -------------------------------------------------------------- M/M/m

TEST(MmmMetrics, MM1ClosedForms) {
  // M/M/1: E[n] = ρ/(1-ρ), E[T] = 1/(µ-λ).
  const double lambda = 0.6, mu = 1.0;
  const MmmMetrics m = mmm_metrics(lambda, mu, 1);
  EXPECT_NEAR(m.expected_system, 0.6 / 0.4, 1e-12);
  EXPECT_NEAR(m.expected_sojourn, 1.0 / 0.4, 1e-12);
  EXPECT_NEAR(m.utilization, 0.6, 1e-12);
}

TEST(MmmMetrics, MM2HandComputed) {
  // λ=1, µ=1, m=2: E[Lq] = C·ρ/(1-ρ) = (1/3)·1 = 1/3; E[n] = 4/3.
  const MmmMetrics m = mmm_metrics(1.0, 1.0, 2);
  EXPECT_NEAR(m.prob_wait, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.expected_queue, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.expected_system, 4.0 / 3.0, 1e-12);
}

TEST(MmmMetrics, LittlesLawHolds) {
  // E[n] = λ · E[sojourn] must hold for all stable configurations.
  for (int m = 1; m <= 20; m += 3) {
    for (double rho : {0.2, 0.5, 0.8, 0.95}) {
      const double mu = 0.1;
      const double lambda = rho * m * mu;
      const MmmMetrics metrics = mmm_metrics(lambda, mu, m);
      EXPECT_NEAR(metrics.expected_system, lambda * metrics.expected_sojourn,
                  1e-9)
          << "m=" << m << " rho=" << rho;
    }
  }
}

TEST(MmmMetrics, ZeroArrivalsIdleSystem) {
  const MmmMetrics m = mmm_metrics(0.0, 0.5, 3);
  EXPECT_DOUBLE_EQ(m.expected_system, 0.0);
  EXPECT_DOUBLE_EQ(m.prob_wait, 0.0);
  EXPECT_DOUBLE_EQ(m.expected_sojourn, 2.0);  // pure service time
}

TEST(MmmMetrics, MonotoneInServers) {
  const double lambda = 2.0, mu = 0.5;
  double prev = 1e300;
  for (int m = 5; m <= 15; ++m) {
    const double en = mmm_metrics(lambda, mu, m).expected_system;
    EXPECT_LT(en, prev);
    prev = en;
  }
}

TEST(MmmMetrics, ApproachesOfferedLoadForManyServers) {
  const double lambda = 2.0, mu = 0.5;  // a = 4
  EXPECT_NEAR(mmm_metrics(lambda, mu, 200).expected_system, 4.0, 1e-6);
}

// ------------------------------------------------------------ min_servers

TEST(MinServers, ZeroArrivalsNeedNoServers) {
  EXPECT_EQ(min_servers(0.0, 1.0, 10.0), 0);
}

TEST(MinServers, ResultSatisfiesTargetAndIsMinimal) {
  const VodParameters params;  // µ = 1/12, T0 = 300
  const double mu = params.service_rate();
  for (double lambda : {0.01, 0.05, 0.2, 1.0, 5.0}) {
    const double target = lambda * params.chunk_duration;
    const int m = min_servers(lambda, mu, target);
    ASSERT_GE(m, 1);
    EXPECT_LE(mmm_metrics(lambda, mu, m).expected_system, target);
    // Minimality: m-1 either unstable or above target.
    if (m > 1) {
      const double a = lambda / mu;
      if (a < m - 1) {
        EXPECT_GT(mmm_metrics(lambda, mu, m - 1).expected_system, target);
      }
    }
  }
}

TEST(MinServers, PaperMappingTargetIsReachable) {
  // Target λT0 = a·R/r > a whenever R > r, so sizing always succeeds.
  const VodParameters params;
  const double mu = params.service_rate();
  const double lambda = 0.06;
  const double a = lambda / mu;
  EXPECT_NEAR(lambda * params.chunk_duration, a * 25.0, 1e-9);  // R = 25 r
  EXPECT_EQ(min_servers(lambda, mu, lambda * params.chunk_duration), 1);
}

TEST(MinServers, TightTargetForcesManyServers) {
  // Target barely above the offered load requires a large pool.
  const int m = min_servers(1.0, 0.1, 10.5);  // a = 10
  EXPECT_GT(m, 12);
  EXPECT_LE(mmm_metrics(1.0, 0.1, m).expected_system, 10.5);
}

TEST(MinServers, UnreachableTargetThrows) {
  // E[n] >= a always, so a target below the offered load is impossible.
  EXPECT_THROW((void)min_servers(1.0, 0.1, 9.0), util::PreconditionError);
}

TEST(MinServers, EqualsThePapersLinearScanBitForBit) {
  // Sec. IV-B verbatim: m = floor(a) + 1 upward, each m sized afresh by
  // mmm_metrics. The gallop and bisection skip most of those m, but both
  // the m returned and the metrics at it must be exactly the scan's.
  const double mu = 1.0 / 12.0;
  for (double a : {1e-3, 0.37, 3.2, 47.5, 612.3, 6000.5, 50000.25}) {
    for (double slack : {1.0005, 1.05, 1.5, 25.0}) {
      const double lambda = a * mu;
      const double target = (lambda / mu) * slack;
      int scan = static_cast<int>(lambda / mu) + 1;
      MmmMetrics expected = mmm_metrics(lambda, mu, scan);
      while (expected.expected_system > target) {
        expected = mmm_metrics(lambda, mu, ++scan);
      }
      MmmMetrics at_min;
      ASSERT_EQ(min_servers(lambda, mu, target, &at_min), scan)
          << "a=" << a << " slack=" << slack;
      EXPECT_EQ(at_min.offered_load, expected.offered_load);
      EXPECT_EQ(at_min.utilization, expected.utilization);
      EXPECT_EQ(at_min.prob_wait, expected.prob_wait);
      EXPECT_EQ(at_min.expected_queue, expected.expected_queue);
      EXPECT_EQ(at_min.expected_system, expected.expected_system);
      EXPECT_EQ(at_min.expected_wait, expected.expected_wait);
      EXPECT_EQ(at_min.expected_sojourn, expected.expected_sojourn);
    }
  }
}

// A parameterized sweep: for every (λ, ρ-target) combination the sizing
// must return a stable minimal pool.
class MinServersSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MinServersSweep, SizingInvariants) {
  const auto [lambda, slack] = GetParam();
  const double mu = 1.0 / 12.0;
  const double a = lambda / mu;
  const double target = a * slack;
  const int m = min_servers(lambda, mu, target);
  EXPECT_GT(static_cast<double>(m), a);  // stability
  EXPECT_LE(mmm_metrics(lambda, mu, m).expected_system, target);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MinServersSweep,
    ::testing::Combine(::testing::Values(0.01, 0.1, 0.5, 1.0, 3.0, 10.0),
                       ::testing::Values(1.05, 1.5, 5.0, 25.0)));

// --------------------------------------------------------- CapacityPlanner

TEST(CapacityPlanner, LiteralMatchesMinServersPerChunk) {
  const VodParameters params;
  const CapacityPlanner planner(params, CapacityModel::kPerChunkLiteral);
  const std::vector<double> lambdas{0.05, 0.0, 0.3};
  const ChannelCapacityPlan plan = planner.plan(lambdas);
  ASSERT_EQ(plan.chunks.size(), 3u);
  const double mu = params.service_rate();
  for (std::size_t i = 0; i < 3; ++i) {
    const int expected =
        min_servers(lambdas[i], mu, lambdas[i] * params.chunk_duration);
    EXPECT_DOUBLE_EQ(plan.chunks[i].servers, expected);
    EXPECT_DOUBLE_EQ(plan.chunks[i].bandwidth,
                     params.vm_bandwidth * expected);
  }
  EXPECT_DOUBLE_EQ(plan.total_bandwidth,
                   params.vm_bandwidth * plan.total_servers);
}

TEST(CapacityPlanner, PooledUsesAggregateLoad) {
  const VodParameters params;
  const CapacityPlanner planner(params, CapacityModel::kChannelPooled);
  const std::vector<double> lambdas{0.2, 0.2, 0.2, 0.2};
  const ChannelCapacityPlan plan = planner.plan(lambdas);
  const double mu = params.service_rate();
  const int expected = min_servers(0.8, mu, 0.8 * params.chunk_duration);
  EXPECT_EQ(plan.total_servers, expected);
  // Equal rates split bandwidth equally.
  for (const ChunkCapacity& c : plan.chunks) {
    EXPECT_NEAR(c.bandwidth, plan.total_bandwidth / 4.0, 1e-9);
    EXPECT_NEAR(c.servers, expected / 4.0, 1e-12);
  }
}

TEST(CapacityPlanner, PooledNeverExceedsLiteral) {
  // Pooling can only help: the aggregate M/M/M needs at most Σ m_i servers.
  const VodParameters params;
  const CapacityPlanner literal(params, CapacityModel::kPerChunkLiteral);
  const CapacityPlanner pooled(params, CapacityModel::kChannelPooled);
  const std::vector<double> lambdas{0.02, 0.08, 0.15, 0.4, 0.01};
  EXPECT_LE(pooled.plan(lambdas).total_servers,
            literal.plan(lambdas).total_servers);
}

TEST(CapacityPlanner, EmptyChannelNeedsNothing) {
  const VodParameters params;
  const CapacityPlanner planner(params, CapacityModel::kChannelPooled);
  const ChannelCapacityPlan plan = planner.plan({0.0, 0.0});
  EXPECT_EQ(plan.total_servers, 0);
  EXPECT_DOUBLE_EQ(plan.total_bandwidth, 0.0);
}

TEST(CapacityPlanner, PooledBandwidthProportionalToRates) {
  const VodParameters params;
  const CapacityPlanner planner(params, CapacityModel::kChannelPooled);
  const ChannelCapacityPlan plan = planner.plan({0.1, 0.3});
  EXPECT_NEAR(plan.chunks[1].bandwidth / plan.chunks[0].bandwidth, 3.0, 1e-9);
}

TEST(CapacityPlanner, LiteralExpectedInQueueMatchesEqn3) {
  const VodParameters params;
  const CapacityPlanner planner(params, CapacityModel::kPerChunkLiteral);
  const std::vector<double> lambdas{0.2};
  const ChannelCapacityPlan plan = planner.plan(lambdas);
  const double mu = params.service_rate();
  const int m = static_cast<int>(plan.chunks[0].servers);
  EXPECT_NEAR(plan.chunks[0].expected_in_queue,
              mmm_metrics(0.2, mu, m).expected_system, 1e-12);
}

TEST(CapacityPlanner, RejectsNegativeRates) {
  const VodParameters params;
  const CapacityPlanner planner(params, CapacityModel::kChannelPooled);
  EXPECT_THROW((void)planner.plan({-0.1}), util::PreconditionError);
}

TEST(VodParameters, DefaultsMatchPaper) {
  const VodParameters params;
  EXPECT_DOUBLE_EQ(params.streaming_rate, 50'000.0);   // 400 kbps
  EXPECT_DOUBLE_EQ(params.chunk_duration, 300.0);      // 5 min
  EXPECT_EQ(params.chunks_per_video, 20);              // 100-minute video
  EXPECT_DOUBLE_EQ(params.chunk_bytes(), 15e6);        // 15 MB
  EXPECT_DOUBLE_EQ(params.vm_bandwidth, 1'250'000.0);  // 10 Mbps
  EXPECT_NEAR(params.service_rate(), 1.0 / 12.0, 1e-12);
}

TEST(VodParameters, RequiresVmFasterThanStream) {
  VodParameters params;
  params.vm_bandwidth = params.streaming_rate;
  EXPECT_THROW(params.validate(), util::PreconditionError);
}

}  // namespace
}  // namespace cloudmedia::core
