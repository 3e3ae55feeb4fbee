// Tests for the peer-class mix of Eqn. (5) (core::solve_p2p_supply) — the
// paper's "the analysis can be readily extended to cases with
// heterogeneous bandwidths" (Sec. IV-C).

#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/capacity.h"
#include "core/jackson.h"
#include "core/p2p.h"
#include "util/check.h"
#include "workload/distributions.h"
#include "workload/viewing.h"

namespace cloudmedia {
namespace {

struct Scenario {
  util::Matrix transfer;
  core::ChannelCapacityPlan capacity;
  std::vector<double> population;
  double streaming_rate = 50'000.0;
};

Scenario make_scenario(int chunks, double arrival_rate) {
  workload::ViewingBehavior behavior;
  core::VodParameters params;
  params.chunks_per_video = chunks;

  Scenario s;
  s.transfer = behavior.transfer_matrix(chunks);
  const std::vector<double> entry = behavior.entry_distribution(chunks);
  const std::vector<double> lambda =
      core::solve_traffic_equations(s.transfer, entry, arrival_rate);
  const core::CapacityPlanner planner(params,
                                      core::CapacityModel::kChannelPooled);
  s.capacity = planner.plan(lambda);
  s.population.resize(lambda.size());
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    s.population[i] = lambda[i] * params.chunk_duration;
  }
  s.streaming_rate = params.streaming_rate;
  return s;
}

std::vector<core::PeerClass> uniform_classes(int n, double upload) {
  std::vector<core::PeerClass> classes;
  for (int g = 0; g < n; ++g) {
    // Appended, not `"c" + std::to_string(g)`: GCC 12 at -O3 warns
    // -Wrestrict on the latter.
    std::string name = "c";
    name += std::to_string(g);
    classes.push_back(core::PeerClass{std::move(name), upload, 1.0 / n});
  }
  return classes;
}

// ---------------------------------------------------------------------------
// Class-mix plumbing.
// ---------------------------------------------------------------------------

TEST(PeerClasses, ValidationRejectsBadMixes) {
  EXPECT_THROW(core::validate_peer_classes({}), util::PreconditionError);
  EXPECT_THROW(
      core::validate_peer_classes({{"a", 1e5, 0.5}, {"b", 1e5, 0.4}}),
      util::PreconditionError);  // fractions sum to 0.9
  EXPECT_THROW(core::validate_peer_classes({{"", 1e5, 1.0}}),
               util::PreconditionError);
  EXPECT_THROW(core::validate_peer_classes({{"a", -1.0, 1.0}}),
               util::PreconditionError);
}

TEST(PeerClasses, MeanUploadIsPopulationWeighted) {
  const std::vector<core::PeerClass> classes = {
      {"dsl", 100.0, 0.7}, {"fiber", 1000.0, 0.3}};
  EXPECT_NEAR(core::mean_upload(classes), 0.7 * 100 + 0.3 * 1000, 1e-12);
}

TEST(PeerClasses, QuantileDiscretizationPreservesTheMean) {
  const workload::BoundedPareto pareto(22'500.0, 1'250'000.0, 3.0);
  const auto classes = core::classes_from_quantiles(
      [&](double u) { return pareto.quantile(u); }, 8, 256);
  ASSERT_EQ(classes.size(), 8u);
  EXPECT_NEAR(core::mean_upload(classes), pareto.mean(),
              0.01 * pareto.mean());
  // Quantile classes are ordered by construction.
  for (std::size_t g = 1; g < classes.size(); ++g) {
    EXPECT_GE(classes[g].upload, classes[g - 1].upload);
  }
}

TEST(PeerClasses, SingleClassDiscretizationIsTheMean) {
  const workload::BoundedPareto pareto(22'500.0, 1'250'000.0, 3.0);
  const auto classes = core::classes_from_quantiles(
      [&](double u) { return pareto.quantile(u); }, 1, 4096);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_NEAR(classes[0].upload, pareto.mean(), 0.005 * pareto.mean());
  EXPECT_DOUBLE_EQ(classes[0].fraction, 1.0);
}

// ---------------------------------------------------------------------------
// Degeneracy: identical classes must reproduce the homogeneous waterfall.
// ---------------------------------------------------------------------------

class HomogeneousDegeneracy : public ::testing::TestWithParam<int> {};

TEST_P(HomogeneousDegeneracy, MatchesHomogeneousSolverExactly) {
  const Scenario s = make_scenario(10, 0.08);
  const double u = 55'000.0;

  const core::P2pSupply homogeneous = core::solve_p2p_supply(
      s.transfer, s.capacity, s.population, u, s.streaming_rate);
  const core::P2pSupply hetero = core::solve_p2p_supply(
      s.transfer, s.capacity, s.population, uniform_classes(GetParam(), u),
      s.streaming_rate);

  ASSERT_EQ(hetero.peer_supply.size(), homogeneous.peer_supply.size());
  for (std::size_t i = 0; i < hetero.peer_supply.size(); ++i) {
    if (GetParam() == 1) {
      // One class is the uniform-uplink overload's own mix: bitwise equal.
      EXPECT_EQ(hetero.peer_supply[i], homogeneous.peer_supply[i])
          << "chunk " << i;
      EXPECT_EQ(hetero.cloud_residual[i], homogeneous.cloud_residual[i]);
      continue;
    }
    EXPECT_NEAR(hetero.peer_supply[i], homogeneous.peer_supply[i], 1e-6)
        << "chunk " << i;
    EXPECT_NEAR(hetero.cloud_residual[i], homogeneous.cloud_residual[i], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, HomogeneousDegeneracy,
                         ::testing::Values(1, 2, 5, 16));

// ---------------------------------------------------------------------------
// Waterfall invariants.
// ---------------------------------------------------------------------------

TEST(HeteroWaterfall, ClassContributionsSumToChunkSupply) {
  const Scenario s = make_scenario(12, 0.1);
  const std::vector<core::PeerClass> classes = {
      {"dsl", 20'000.0, 0.5}, {"cable", 60'000.0, 0.3}, {"fiber", 300'000.0, 0.2}};
  const auto out = core::solve_p2p_supply(
      s.transfer, s.capacity, s.population, classes, s.streaming_rate);

  for (std::size_t i = 0; i < out.peer_supply.size(); ++i) {
    double sum = 0.0;
    for (std::size_t g = 0; g < classes.size(); ++g) {
      EXPECT_GE(out.class_supply(g, i), -1e-9);
      sum += out.class_supply(g, i);
    }
    EXPECT_NEAR(sum, out.peer_supply[i], 1e-6) << "chunk " << i;
  }
}

TEST(HeteroWaterfall, SupplyNeverExceedsChunkRequirement) {
  const Scenario s = make_scenario(12, 0.1);
  const std::vector<core::PeerClass> classes = {
      {"slow", 10'000.0, 0.6}, {"fast", 500'000.0, 0.4}};
  const auto out = core::solve_p2p_supply(
      s.transfer, s.capacity, s.population, classes, s.streaming_rate);
  for (std::size_t i = 0; i < out.peer_supply.size(); ++i) {
    EXPECT_LE(out.peer_supply[i],
              s.capacity.chunks[i].bandwidth + 1e-6);
    EXPECT_GE(out.cloud_residual[i], 0.0);
    EXPECT_NEAR(out.cloud_residual[i],
                std::max(0.0, s.capacity.chunks[i].bandwidth -
                                  out.peer_supply[i]),
                1e-6);
  }
}

TEST(HeteroWaterfall, NoClassPledgesMoreThanItsCapacity) {
  const Scenario s = make_scenario(10, 0.12);
  const std::vector<core::PeerClass> classes = {
      {"dsl", 15'000.0, 0.7}, {"fiber", 400'000.0, 0.3}};
  const auto out = core::solve_p2p_supply(
      s.transfer, s.capacity, s.population, classes, s.streaming_rate);

  const double population =
      std::accumulate(s.population.begin(), s.population.end(), 0.0);
  for (std::size_t g = 0; g < classes.size(); ++g) {
    double pledged = 0.0;
    for (std::size_t i = 0; i < out.peer_supply.size(); ++i) {
      pledged += out.class_supply(g, i);
    }
    EXPECT_LE(pledged,
              classes[g].fraction * population * classes[g].upload + 1e-6)
        << "class " << classes[g].name;
  }
}

TEST(HeteroWaterfall, MeanPreservingSpreadShiftsLoadTowardFastClass) {
  const Scenario s = make_scenario(10, 0.1);
  // Same mean as homogeneous 50 kB/s but split 80/20 slow/fast.
  const std::vector<core::PeerClass> spread = {
      {"slow", 12'500.0, 0.8}, {"fast", 200'000.0, 0.2}};
  ASSERT_NEAR(core::mean_upload(spread), 50'000.0, 1e-9);

  const auto out = core::solve_p2p_supply(
      s.transfer, s.capacity, s.population, spread, s.streaming_rate);

  double slow_total = 0.0, fast_total = 0.0;
  for (std::size_t i = 0; i < out.peer_supply.size(); ++i) {
    slow_total += out.class_supply(0, i);
    fast_total += out.class_supply(1, i);
  }
  // 20% of the population holds 80% of the capacity; the waterfall must
  // draw more from it in absolute terms.
  EXPECT_GT(fast_total, slow_total);
}

TEST(HeteroWaterfall, TotalSupplyWeaklyBelowHomogeneousMeanField) {
  // Jensen-style sanity: with the provisioned-bandwidth cap, concentrating
  // capacity in few peers cannot *increase* usable supply relative to the
  // homogeneous mean (caps bind per chunk, and the fast class saturates).
  const Scenario s = make_scenario(10, 0.1);
  const double mean = 50'000.0;
  const std::vector<core::PeerClass> spread = {
      {"slow", 5'000.0, 0.9}, {"fast", 455'000.0, 0.1}};
  ASSERT_NEAR(core::mean_upload(spread), mean, 1e-9);

  const auto hetero = core::solve_p2p_supply(
      s.transfer, s.capacity, s.population, spread, s.streaming_rate);
  const auto homogeneous = core::solve_p2p_supply(
      s.transfer, s.capacity, s.population, mean, s.streaming_rate);

  const double hetero_total = std::accumulate(
      hetero.peer_supply.begin(), hetero.peer_supply.end(), 0.0);
  const double homo_total = std::accumulate(
      homogeneous.peer_supply.begin(), homogeneous.peer_supply.end(), 0.0);
  EXPECT_LE(hetero_total, homo_total + 1e-6);
}

TEST(HeteroWaterfall, ZeroUploadClassesContributeNothing) {
  const Scenario s = make_scenario(8, 0.1);
  const std::vector<core::PeerClass> classes = {
      {"freerider", 0.0, 0.5}, {"seed", 100'000.0, 0.5}};
  const auto out = core::solve_p2p_supply(
      s.transfer, s.capacity, s.population, classes, s.streaming_rate);
  for (std::size_t i = 0; i < out.peer_supply.size(); ++i) {
    EXPECT_DOUBLE_EQ(out.class_supply(0, i), 0.0);
  }
}

TEST(HeteroWaterfall, AllZeroUploadMeansCloudServesEverything) {
  const Scenario s = make_scenario(8, 0.1);
  const auto out = core::solve_p2p_supply(
      s.transfer, s.capacity, s.population, uniform_classes(3, 0.0),
      s.streaming_rate);
  for (std::size_t i = 0; i < out.peer_supply.size(); ++i) {
    EXPECT_DOUBLE_EQ(out.peer_supply[i], 0.0);
    EXPECT_NEAR(out.cloud_residual[i], s.capacity.chunks[i].bandwidth, 1e-9);
  }
}

TEST(HeteroWaterfall, RarestOrderMatchesAvailabilityOrdering) {
  const Scenario s = make_scenario(10, 0.1);
  const auto out = core::solve_p2p_supply(
      s.transfer, s.capacity, s.population, uniform_classes(2, 50'000.0),
      s.streaming_rate);
  for (std::size_t k = 1; k < out.rarest_order.size(); ++k) {
    EXPECT_LE(out.availability.owners[out.rarest_order[k - 1]],
              out.availability.owners[out.rarest_order[k]] + 1e-12);
  }
}

TEST(HeteroWaterfall, LiteralCapOptionBindsAtStreamingRate) {
  const Scenario s = make_scenario(8, 0.15);
  core::P2pOptions options;
  options.demand_cap = core::P2pDemandCap::kStreamingRateLiteral;
  const auto out = core::solve_p2p_supply(
      s.transfer, s.capacity, s.population, uniform_classes(2, 500'000.0),
      s.streaming_rate, options);
  for (std::size_t i = 0; i < out.peer_supply.size(); ++i) {
    EXPECT_LE(out.peer_supply[i],
              s.capacity.chunks[i].servers * s.streaming_rate + 1e-6);
  }
}

}  // namespace
}  // namespace cloudmedia
