// Edge-case coverage for src/core/erlang.cc (ISSUE 1 satellite): zero load,
// single server, and very large server counts where a naive factorial-based
// Erlang formula would overflow. Complements the closed-form and invariant
// checks in erlang_test.cc.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "core/erlang.h"
#include "util/check.h"

namespace cloudmedia::core {
namespace {

// --------------------------------------------------------------- zero load

TEST(ErlangEdge, ZeroLoadNeverBlocks) {
  for (int m : {1, 2, 10, 1000}) {
    EXPECT_DOUBLE_EQ(erlang_b(m, 0.0), 0.0) << "m=" << m;
    EXPECT_DOUBLE_EQ(erlang_c(m, 0.0), 0.0) << "m=" << m;
  }
}

TEST(ErlangEdge, ZeroServersZeroLoadBlocksByConvention) {
  // B(0, a) == 1 for every a, including a == 0: with no servers every
  // arrival is blocked, and the recursion's base case encodes that.
  EXPECT_DOUBLE_EQ(erlang_b(0, 0.0), 1.0);
}

TEST(ErlangEdge, ZeroArrivalsMetricsAreIdle) {
  const MmmMetrics m = mmm_metrics(0.0, 2.0, 5);
  EXPECT_DOUBLE_EQ(m.offered_load, 0.0);
  EXPECT_DOUBLE_EQ(m.utilization, 0.0);
  EXPECT_DOUBLE_EQ(m.prob_wait, 0.0);
  EXPECT_DOUBLE_EQ(m.expected_queue, 0.0);
  EXPECT_DOUBLE_EQ(m.expected_system, 0.0);
  EXPECT_DOUBLE_EQ(m.expected_wait, 0.0);
  EXPECT_DOUBLE_EQ(m.expected_sojourn, 0.5);  // pure service time 1/µ
}

// ------------------------------------------------------------ single server

TEST(ErlangEdge, SingleServerNearSaturation) {
  // M/M/1 closed forms survive ρ -> 1⁻: P(wait) = ρ, E[n] = ρ/(1-ρ).
  const double rho = 1.0 - 1e-9;
  const MmmMetrics m = mmm_metrics(rho, 1.0, 1);
  EXPECT_NEAR(m.prob_wait, rho, 1e-6);
  EXPECT_NEAR(m.expected_system * (1.0 - rho), rho, 1e-6);
  EXPECT_TRUE(std::isfinite(m.expected_system));
}

TEST(ErlangEdge, SingleServerTinyLoad) {
  const double a = 1e-12;
  EXPECT_NEAR(erlang_b(1, a), a, 1e-18);  // B(1,a) = a/(1+a) ~ a
  EXPECT_NEAR(erlang_c(1, a), a, 1e-18);  // C(1,a) = a
  EXPECT_EQ(min_servers(a, 1.0, 1.0), 1);
}

TEST(ErlangEdge, MinServersReturnsOneWhenOneSuffices) {
  // Light load with a loose target: the minimal stable m is 1.
  EXPECT_EQ(min_servers(0.1, 1.0, 1.0), 1);
}

// ---------------------------------------------------- large N / overflow

TEST(ErlangEdge, LargeServerCountsStayFiniteAndBounded) {
  // a^m / m! overflows double for m ≳ 170 in the naive formula; the
  // stable recursion must stay in [0, 1] far beyond that.
  for (int m : {171, 1000, 100000, 1000000}) {
    const double b = erlang_b(m, static_cast<double>(m) * 0.9);
    EXPECT_TRUE(std::isfinite(b)) << "m=" << m;
    EXPECT_GE(b, 0.0) << "m=" << m;
    EXPECT_LE(b, 1.0) << "m=" << m;
  }
}

TEST(ErlangEdge, LargeNHeavyLoadKnownRegimes) {
  // Critically loaded (a == m): B(m, m) ~ 1/sqrt(m·π/2) as m grows.
  const int m = 10000;
  const double b = erlang_b(m, static_cast<double>(m));
  EXPECT_NEAR(b, 1.0 / std::sqrt(static_cast<double>(m) * std::numbers::pi / 2.0),
              1e-4);
  // Deeply overloaded: blocking approaches 1 - m/a.
  EXPECT_NEAR(erlang_b(100, 10000.0), 1.0 - 100.0 / 10000.0, 1e-3);
  // Deeply underloaded: blocking is numerically zero, not NaN.
  EXPECT_NEAR(erlang_b(100000, 10.0), 0.0, 1e-12);
}

TEST(ErlangEdge, ErlangCNearStabilityBoundaryIsFiniteProbability) {
  const int m = 5000;
  const double a = static_cast<double>(m) * (1.0 - 1e-9);
  const double c = erlang_c(m, a);
  EXPECT_TRUE(std::isfinite(c));
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 1.0);
}

TEST(ErlangEdge, MinServersScalesToHugeLoads) {
  // λ = 10^6, µ = 1 → a = 10^6; the search must terminate fast and return
  // an m just above the offered load that meets the target.
  const double lambda = 1e6;
  const int m = min_servers(lambda, 1.0, 1.1e6);
  EXPECT_GT(m, static_cast<int>(lambda / 1.0));
  EXPECT_LE(mmm_metrics(lambda, 1.0, m).expected_system, 1.1e6);
  if (m > static_cast<int>(lambda) + 1) {
    EXPECT_GT(mmm_metrics(lambda, 1.0, m - 1).expected_system, 1.1e6);
  }
}

TEST(ErlangEdge, MinServersRefusesLoadsPastTheCapWithoutOverflow) {
  // Offered loads of 2^31 and beyond would overflow the int conversion of
  // the first stable m; they must fail the cap check instead.
  EXPECT_THROW((void)min_servers(3e9, 1.0, 6e9), util::InvariantError);
  EXPECT_THROW((void)min_servers(1e10, 1.0, 2e10), util::InvariantError);
  // The boundary: a = 2^24 − 1 makes the first stable m the cap itself.
  EXPECT_THROW((void)min_servers(16777215.0, 1.0, 3.4e7), util::InvariantError);
}

// ------------------------------------------- metrics handed back by sizing

void expect_bitwise_equal(const MmmMetrics& got, const MmmMetrics& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(got.offered_load), bits(want.offered_load));
  EXPECT_EQ(bits(got.utilization), bits(want.utilization));
  EXPECT_EQ(bits(got.prob_wait), bits(want.prob_wait));
  EXPECT_EQ(bits(got.expected_queue), bits(want.expected_queue));
  EXPECT_EQ(bits(got.expected_system), bits(want.expected_system));
  EXPECT_EQ(bits(got.expected_wait), bits(want.expected_wait));
  EXPECT_EQ(bits(got.expected_sojourn), bits(want.expected_sojourn));
}

TEST(ErlangEdge, MinServersHandsBackTheMetricsAtItsM) {
  // The planner reads E[n] and the sojourn from these instead of rerunning
  // mmm_metrics, so they must be the very same bits. Cover both returns:
  // the first stable m meeting the target outright, and gallop + bisect.
  struct Case {
    double lambda, mu, target;
    bool first_stable;
  };
  const Case cases[] = {
      {0.1, 1.0, 1.0, true},         // a = 0.1, m = 1
      {7.5, 0.5, 150.0, true},       // a = 15, generous target
      {1.0, 0.1, 10.5, false},       // a = 10, tight target
      {50.0, 1.0, 50.5, false},
      {1e6, 1.0, 1.1e6, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.lambda);
    MmmMetrics at_m;
    const int m = min_servers(c.lambda, c.mu, c.target, &at_m);
    const int first_stable = static_cast<int>(c.lambda / c.mu) + 1;
    EXPECT_EQ(m == first_stable, c.first_stable) << "m=" << m;
    expect_bitwise_equal(at_m, mmm_metrics(c.lambda, c.mu, m));
    EXPECT_EQ(min_servers(c.lambda, c.mu, c.target), m);  // no out-param
  }
  MmmMetrics idle;
  idle.expected_sojourn = 42.0;
  EXPECT_EQ(min_servers(0.0, 1.0, 10.0, &idle), 0);
  expect_bitwise_equal(idle, MmmMetrics{});
}

// ----------------------------------------------------------- preconditions

TEST(ErlangEdge, RejectsInvalidArguments) {
  EXPECT_THROW((void)erlang_b(-1, 1.0), util::PreconditionError);
  EXPECT_THROW((void)erlang_b(5, -0.1), util::PreconditionError);
  EXPECT_THROW((void)erlang_c(0, 0.0), util::PreconditionError);
  EXPECT_THROW((void)mmm_metrics(1.0, 0.0, 1), util::PreconditionError);
  EXPECT_THROW((void)min_servers(-1.0, 1.0, 5.0), util::PreconditionError);
  // Target at or below the offered load is unreachable for any finite m.
  EXPECT_THROW((void)min_servers(4.0, 1.0, 4.0), util::PreconditionError);
}

}  // namespace
}  // namespace cloudmedia::core
