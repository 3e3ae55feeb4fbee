#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/capacity.h"
#include "core/jackson.h"
#include "core/p2p.h"
#include "testing/seeds.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/viewing.h"

namespace cloudmedia::core {
namespace {

util::Matrix chain_matrix(int j, double advance) {
  // Pure sequential viewing: chunk i -> i+1 with probability `advance`.
  util::Matrix p(static_cast<std::size_t>(j), static_cast<std::size_t>(j));
  for (int i = 0; i + 1 < j; ++i) {
    p(static_cast<std::size_t>(i), static_cast<std::size_t>(i + 1)) = advance;
  }
  return p;
}

// ------------------------------------------------------ traffic equations

TEST(TrafficEquations, SequentialChainGeometricRates) {
  const int j = 5;
  const double c = 0.5;
  std::vector<double> entry(j, 0.0);
  entry[0] = 1.0;
  const std::vector<double> l =
      solve_traffic_equations(chain_matrix(j, c), entry, 2.0);
  for (int i = 0; i < j; ++i) {
    EXPECT_NEAR(l[static_cast<std::size_t>(i)], 2.0 * std::pow(c, i), 1e-12);
  }
}

TEST(TrafficEquations, HandSolvedTwoQueueSystem) {
  // P = [[0, 0.5], [0.25, 0]], entry (1, 0), Λ = 1:
  //   λ1 = 1 + 0.25 λ2;  λ2 = 0.5 λ1  =>  λ1 = 8/7, λ2 = 4/7.
  util::Matrix p(2, 2);
  p(0, 1) = 0.5;
  p(1, 0) = 0.25;
  const std::vector<double> l = solve_traffic_equations(p, {1.0, 0.0}, 1.0);
  EXPECT_NEAR(l[0], 8.0 / 7.0, 1e-12);
  EXPECT_NEAR(l[1], 4.0 / 7.0, 1e-12);
}

TEST(TrafficEquations, ZeroExternalRateZeroFlows) {
  const std::vector<double> l =
      solve_traffic_equations(chain_matrix(4, 0.9), {1, 0, 0, 0}, 0.0);
  for (double x : l) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(TrafficEquations, EntrySplitSuperposition) {
  // Linearity: solution for a mixed entry vector equals the weighted sum of
  // single-entry solutions.
  const util::Matrix p = chain_matrix(3, 0.5);
  const std::vector<double> full =
      solve_traffic_equations(p, {0.7, 0.3, 0.0}, 1.0);
  const std::vector<double> e0 = solve_traffic_equations(p, {1, 0, 0}, 0.7);
  const std::vector<double> e1 = solve_traffic_equations(p, {0, 1, 0}, 0.3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(full[static_cast<std::size_t>(i)],
                e0[static_cast<std::size_t>(i)] + e1[static_cast<std::size_t>(i)],
                1e-12);
  }
}

TEST(TrafficEquations, ConservationExternalEqualsDepartures) {
  // For any open sub-stochastic network, Σ λ_i · P(leave|i) = Λ.
  const workload::ViewingBehavior behavior;
  const util::Matrix p = behavior.transfer_matrix(20);
  const std::vector<double> entry = behavior.entry_distribution(20);
  const std::vector<double> l = solve_traffic_equations(p, entry, 3.7);
  EXPECT_NEAR(departure_flow(p, l), 3.7, 1e-9);
}

class TrafficConservationSweep : public ::testing::TestWithParam<int> {};

TEST_P(TrafficConservationSweep, RandomSubStochasticNetworksConserveFlow) {
  util::Rng rng(testing::sweep_seed(GetParam(), 9973, 17));
  const int j = 3 + GetParam() % 6;
  util::Matrix p(static_cast<std::size_t>(j), static_cast<std::size_t>(j));
  for (int i = 0; i < j; ++i) {
    double row_budget = rng.uniform(0.3, 0.95);  // leak >= 5 %
    for (int k = 0; k < j; ++k) {
      const double share = rng.uniform() * row_budget / j;
      p(static_cast<std::size_t>(i), static_cast<std::size_t>(k)) = share;
    }
  }
  std::vector<double> entry(static_cast<std::size_t>(j), 0.0);
  double total = 0.0;
  for (int i = 0; i < j; ++i) total += (entry[static_cast<std::size_t>(i)] = rng.uniform());
  for (double& e : entry) e /= total;

  const double external = rng.uniform(0.1, 10.0);
  const std::vector<double> l = solve_traffic_equations(p, entry, external);
  for (double x : l) EXPECT_GE(x, 0.0);
  EXPECT_NEAR(departure_flow(p, l), external, 1e-8 * external);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrafficConservationSweep,
                         ::testing::Range(1, 21));

TEST(TrafficEquations, RejectsSuperStochasticMatrix) {
  util::Matrix p(2, 2);
  p(0, 0) = 0.7;
  p(0, 1) = 0.6;  // row sum 1.3
  EXPECT_THROW((void)solve_traffic_equations(p, {1, 0}, 1.0),
               util::PreconditionError);
}

TEST(TrafficEquations, RejectsClosedNetwork) {
  // A stochastic (no-leak) matrix makes (I - Pᵀ) singular.
  util::Matrix p(2, 2);
  p(0, 1) = 1.0;
  p(1, 0) = 1.0;
  EXPECT_THROW((void)solve_traffic_equations(p, {1, 0}, 1.0),
               util::InvariantError);
}

TEST(TrafficEquations, RejectsNegativeEntries) {
  util::Matrix p(2, 2);
  p(0, 1) = -0.1;
  EXPECT_THROW((void)solve_traffic_equations(p, {1, 0}, 1.0),
               util::PreconditionError);
}

// ---------------------------------------------------------- Proposition 1

TEST(ChunkAvailability, SolutionSatisfiesProposition1) {
  const workload::ViewingBehavior behavior;
  const util::Matrix p = behavior.transfer_matrix(8);
  std::vector<double> population(8);
  for (int i = 0; i < 8; ++i) population[static_cast<std::size_t>(i)] = 5.0 + i;

  const ChunkAvailability a = solve_chunk_availability(p, population);
  for (std::size_t i = 0; i < 8; ++i) {
    // Anchor: ν_ii = E[n_i].
    EXPECT_NEAR(a.nu(i, i), population[i], 1e-9);
    // Fixed point: ν_ij = Σ_l ν_il P_lj for j != i.
    for (std::size_t jj = 0; jj < 8; ++jj) {
      if (jj == i) continue;
      double rhs = 0.0;
      for (std::size_t l = 0; l < 8; ++l) rhs += a.nu(i, l) * p(l, jj);
      EXPECT_NEAR(a.nu(i, jj), rhs, 1e-9) << "i=" << i << " j=" << jj;
    }
  }
}

TEST(ChunkAvailability, OwnersAreEqn4RowSums) {
  const workload::ViewingBehavior behavior;
  const util::Matrix p = behavior.transfer_matrix(6);
  const std::vector<double> population(6, 10.0);
  const ChunkAvailability a = solve_chunk_availability(p, population);
  for (std::size_t i = 0; i < 6; ++i) {
    double sum = 0.0;
    for (std::size_t jj = 0; jj < 6; ++jj) {
      if (jj != i) sum += a.nu(i, jj);
    }
    EXPECT_NEAR(a.owners[i], sum, 1e-9);
    EXPECT_GE(a.owners[i], 0.0);
  }
}

TEST(ChunkAvailability, SequentialChainOwnershipFlowsDownstream) {
  // In a pure forward chain, owners of chunk 0 sit in later queues only.
  const util::Matrix p = chain_matrix(4, 0.8);
  const ChunkAvailability a = solve_chunk_availability(p, {10, 8, 6, 4});
  EXPECT_GT(a.nu(0, 1), 0.0);
  EXPECT_GT(a.owners[0], a.owners[3]);  // early chunks owned more widely
  // Nobody in queue 0 owns chunk 3 (can't have passed through it).
  EXPECT_NEAR(a.nu(3, 0), 0.0, 1e-9);
}

TEST(ChunkAvailability, EmptyChannelHasNoOwners) {
  const util::Matrix p = chain_matrix(4, 0.5);
  const ChunkAvailability a = solve_chunk_availability(p, {0, 0, 0, 0});
  for (double o : a.owners) EXPECT_DOUBLE_EQ(o, 0.0);
}

TEST(ChunkAvailability, SingleChunkChannel) {
  util::Matrix p(1, 1);
  const ChunkAvailability a = solve_chunk_availability(p, {7.0});
  EXPECT_DOUBLE_EQ(a.nu(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(a.owners[0], 0.0);  // downloaders are not suppliers
}

// ----------------------------------------------------------- Eqn. (5)

struct SupplyFixture {
  VodParameters params;
  util::Matrix transfer;
  ChannelCapacityPlan capacity;
  std::vector<double> population;

  explicit SupplyFixture(double external_rate = 0.2)
      : transfer(workload::ViewingBehavior{}.transfer_matrix(10)) {
    params.chunks_per_video = 10;
    const workload::ViewingBehavior behavior;
    const std::vector<double> lambdas = solve_traffic_equations(
        transfer, behavior.entry_distribution(10), external_rate);
    capacity = CapacityPlanner(params, CapacityModel::kChannelPooled).plan(lambdas);
    population.resize(10);
    for (std::size_t i = 0; i < 10; ++i) {
      population[i] = lambdas[i] * params.chunk_duration;
    }
  }
};

TEST(P2pSupply, SupplyIsNonNegativeAndCapped) {
  const SupplyFixture f;
  const P2pSupply s = solve_p2p_supply(f.transfer, f.capacity, f.population,
                                       50'000.0, f.params.streaming_rate);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_GE(s.peer_supply[i], 0.0);
    EXPECT_LE(s.peer_supply[i], f.capacity.chunks[i].bandwidth + 1e-6);
    EXPECT_LE(s.peer_supply[i],
              s.availability.owners[i] * 50'000.0 + 1e-6);
  }
}

TEST(P2pSupply, TotalSupplyBoundedByOverlayUpload) {
  const SupplyFixture f;
  const double u = 50'000.0;
  const P2pSupply s = solve_p2p_supply(f.transfer, f.capacity, f.population, u,
                                       f.params.streaming_rate);
  const double total_supply =
      std::accumulate(s.peer_supply.begin(), s.peer_supply.end(), 0.0);
  const double overlay_upload =
      std::accumulate(f.population.begin(), f.population.end(), 0.0) * u;
  EXPECT_LE(total_supply, overlay_upload + 1e-6);
}

TEST(P2pSupply, ResidualPlusSupplyCoversRequirement) {
  const SupplyFixture f;
  const P2pSupply s = solve_p2p_supply(f.transfer, f.capacity, f.population,
                                       50'000.0, f.params.streaming_rate);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_GE(s.cloud_residual[i] + s.peer_supply[i],
              f.capacity.chunks[i].bandwidth - 1e-6);
    EXPECT_GE(s.cloud_residual[i], 0.0);
  }
}

TEST(P2pSupply, RarestOrderSortedByOwners) {
  const SupplyFixture f;
  const P2pSupply s = solve_p2p_supply(f.transfer, f.capacity, f.population,
                                       50'000.0, f.params.streaming_rate);
  for (std::size_t k = 1; k < s.rarest_order.size(); ++k) {
    EXPECT_LE(s.availability.owners[s.rarest_order[k - 1]],
              s.availability.owners[s.rarest_order[k]]);
  }
}

TEST(P2pSupply, MoreUploadMeansLessCloud) {
  const SupplyFixture f;
  double previous_total = 1e300;
  for (double u : {10'000.0, 30'000.0, 50'000.0, 70'000.0}) {
    const P2pSupply s = solve_p2p_supply(f.transfer, f.capacity, f.population,
                                         u, f.params.streaming_rate);
    const double total = std::accumulate(s.cloud_residual.begin(),
                                         s.cloud_residual.end(), 0.0);
    EXPECT_LE(total, previous_total + 1e-6);
    previous_total = total;
  }
}

TEST(P2pSupply, ZeroUploadMeansCloudServesEverything) {
  const SupplyFixture f;
  const P2pSupply s = solve_p2p_supply(f.transfer, f.capacity, f.population,
                                       0.0, f.params.streaming_rate);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(s.peer_supply[i], 0.0);
    EXPECT_DOUBLE_EQ(s.cloud_residual[i], f.capacity.chunks[i].bandwidth);
  }
}

TEST(P2pSupply, LiteralCapLimitsOffloadToStreamingRate) {
  // The paper-literal cap Γ <= m·r can never exceed (r/R)·s_i — the
  // inconsistency documented in README "Modelling choices" and core/p2p.h.
  const SupplyFixture f;
  P2pOptions literal;
  literal.demand_cap = P2pDemandCap::kStreamingRateLiteral;
  const P2pSupply s =
      solve_p2p_supply(f.transfer, f.capacity, f.population, 1e9,
                       f.params.streaming_rate, literal);
  const double r_over_big_r = f.params.streaming_rate / f.params.vm_bandwidth;
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_LE(s.peer_supply[i],
              f.capacity.chunks[i].bandwidth * r_over_big_r + 1e-6);
  }
}

TEST(P2pSupply, AbundantUploadCoversAllDemandUnderBandwidthCap) {
  const SupplyFixture f;
  const P2pSupply s = solve_p2p_supply(f.transfer, f.capacity, f.population,
                                       1e9, f.params.streaming_rate);
  for (std::size_t i = 0; i < 10; ++i) {
    if (s.availability.owners[i] > 0.0) {
      EXPECT_NEAR(s.cloud_residual[i], 0.0, 1e-6);
    }
  }
}

TEST(P2pSupply, PledgeAccountingDiscountsLaterChunks) {
  // With just enough upload for the rarest chunk, the next chunks get less.
  const SupplyFixture f;
  const double u = 5'000.0;  // scarce
  const P2pSupply s = solve_p2p_supply(f.transfer, f.capacity, f.population, u,
                                       f.params.streaming_rate);
  const std::size_t rarest = s.rarest_order[0];
  // The rarest chunk is served first (if it has owners at all).
  if (s.availability.owners[rarest] > 0.0) {
    EXPECT_GT(s.peer_supply[rarest], 0.0);
  }
  const double total =
      std::accumulate(s.peer_supply.begin(), s.peer_supply.end(), 0.0);
  const double overlay =
      std::accumulate(f.population.begin(), f.population.end(), 0.0) * u;
  EXPECT_LE(total, overlay + 1e-6);
}

}  // namespace
}  // namespace cloudmedia::core
