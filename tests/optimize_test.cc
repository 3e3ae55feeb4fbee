#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "core/clusters.h"
#include "core/storage_rental.h"
#include "core/vm_allocation.h"
#include "testing/seeds.h"
#include "util/check.h"
#include "util/rng.h"

namespace cloudmedia::core {
namespace {

constexpr double kChunkBytes = 15e6;

StorageProblem small_storage_problem() {
  StorageProblem p;
  p.clusters = paper_nfs_clusters();
  p.chunk_bytes = kChunkBytes;
  p.budget_per_hour = 1.0;
  for (int i = 0; i < 6; ++i) {
    p.chunks.push_back({{0, i}, (6.0 - i) * 1e6});
  }
  return p;
}

// ------------------------------------------------------------- Table II/III

TEST(PaperClusters, TableTwoValues) {
  const std::vector<VmClusterSpec> vms = paper_vm_clusters();
  ASSERT_EQ(vms.size(), 3u);
  EXPECT_EQ(vms[0].name, "standard");
  EXPECT_DOUBLE_EQ(vms[0].utility, 0.6);
  EXPECT_DOUBLE_EQ(vms[0].price_per_hour, 0.45);
  EXPECT_EQ(vms[0].max_vms, 75);
  EXPECT_EQ(vms[1].max_vms, 30);
  EXPECT_EQ(vms[2].max_vms, 45);
  // Total capacity: 150 VMs (the Fig.-4 calibration constraint).
  EXPECT_EQ(vms[0].max_vms + vms[1].max_vms + vms[2].max_vms, 150);
}

TEST(PaperClusters, TableThreeValues) {
  const std::vector<NfsClusterSpec> nfs = paper_nfs_clusters();
  ASSERT_EQ(nfs.size(), 2u);
  EXPECT_DOUBLE_EQ(nfs[0].utility, 0.8);
  EXPECT_DOUBLE_EQ(nfs[0].price_per_gb_hour, 1.11e-4);
  EXPECT_DOUBLE_EQ(nfs[1].price_per_gb_hour, 2.08e-4);
  EXPECT_DOUBLE_EQ(nfs[0].capacity_bytes, 20e9);
  // Per-byte conversion.
  EXPECT_NEAR(nfs[1].price_per_byte_hour() * 1e9, 2.08e-4, 1e-15);
}

TEST(PaperClusters, GreedyOrderings) {
  // Storage: u/p ranks standard (0.8/1.11e-4) above high (1/2.08e-4).
  const auto nfs = paper_nfs_clusters();
  EXPECT_GT(nfs[0].utility / nfs[0].price_per_gb_hour,
            nfs[1].utility / nfs[1].price_per_gb_hour);
  // VM: standard (1.33) > advanced (1.25) > medium (1.14).
  const auto vms = paper_vm_clusters();
  const auto ratio = [](const VmClusterSpec& c) {
    return c.utility / c.price_per_hour;
  };
  EXPECT_GT(ratio(vms[0]), ratio(vms[2]));
  EXPECT_GT(ratio(vms[2]), ratio(vms[1]));
}

// ------------------------------------------------------------- storage

TEST(StorageGreedy, PlacesEveryChunkWithinBudget) {
  const StorageProblem p = small_storage_problem();
  const StorageAssignment a = solve_storage_greedy(p);
  EXPECT_TRUE(a.feasible);
  for (int f : a.cluster_of) EXPECT_GE(f, 0);
  EXPECT_LE(a.cost_per_hour, p.budget_per_hour + 1e-12);
}

TEST(StorageGreedy, PrefersBestUtilityPerCostCluster) {
  // With ample capacity and budget everything lands on the best-u/p
  // cluster (standard, index 0).
  const StorageProblem p = small_storage_problem();
  const StorageAssignment a = solve_storage_greedy(p);
  for (int f : a.cluster_of) EXPECT_EQ(f, 0);
}

TEST(StorageGreedy, OverflowsToSecondClusterWhenFull) {
  StorageProblem p = small_storage_problem();
  // Standard holds only 2 chunks.
  p.clusters[0].capacity_bytes = 2.0 * kChunkBytes;
  const StorageAssignment a = solve_storage_greedy(p);
  EXPECT_TRUE(a.feasible);
  int on_standard = 0, on_high = 0;
  for (int f : a.cluster_of) (f == 0 ? on_standard : on_high)++;
  EXPECT_EQ(on_standard, 2);
  EXPECT_EQ(on_high, 4);
}

TEST(StorageGreedy, HighestDemandChunksWinTheBestCluster) {
  StorageProblem p = small_storage_problem();
  p.clusters[0].capacity_bytes = 2.0 * kChunkBytes;
  const StorageAssignment a = solve_storage_greedy(p);
  // Chunks 0 and 1 carry the highest demand.
  EXPECT_EQ(a.cluster_of[0], 0);
  EXPECT_EQ(a.cluster_of[1], 0);
  EXPECT_EQ(a.cluster_of[5], 1);
}

TEST(StorageGreedy, BudgetExhaustionSignalsInfeasible) {
  StorageProblem p = small_storage_problem();
  // Budget for roughly two chunks on the standard cluster.
  p.budget_per_hour = 2.5 * p.clusters[0].price_per_byte_hour() * kChunkBytes;
  const StorageAssignment a = solve_storage_greedy(p);
  EXPECT_FALSE(a.feasible);
  int placed = 0;
  for (int f : a.cluster_of) placed += f >= 0;
  EXPECT_EQ(placed, 2);
}

TEST(StorageGreedy, CapacityExhaustionSignalsInfeasible) {
  StorageProblem p = small_storage_problem();
  for (NfsClusterSpec& c : p.clusters) c.capacity_bytes = 2.0 * kChunkBytes;
  const StorageAssignment a = solve_storage_greedy(p);
  EXPECT_FALSE(a.feasible);
}

TEST(StorageGreedy, UtilityAndCostAudited) {
  const StorageProblem p = small_storage_problem();
  const StorageAssignment a = solve_storage_greedy(p);
  const StorageAssignment audit = audit_storage_assignment(p, a.cluster_of);
  EXPECT_NEAR(audit.total_utility, a.total_utility, 1e-9);
  EXPECT_NEAR(audit.cost_per_hour, a.cost_per_hour, 1e-12);
}

TEST(StorageExact, GreedyIsSuboptimalUnderSlackBudget) {
  // A documented property of the paper's heuristic: ranking clusters by
  // utility-per-cost puts everything on "standard" (u = 0.8) even when the
  // budget would comfortably pay for "high" (u = 1.0). The exact optimum
  // under Table III's prices and B_S = $1/h uses the high cluster and wins
  // by exactly the utility ratio. bench/ablation_heuristic_vs_exact
  // quantifies this gap at paper scale.
  const StorageProblem p = small_storage_problem();
  const StorageAssignment greedy = solve_storage_greedy(p);
  const StorageAssignment exact = solve_storage_exact(p);
  ASSERT_TRUE(greedy.feasible);
  ASSERT_TRUE(exact.feasible);
  EXPECT_NEAR(exact.total_utility / greedy.total_utility, 1.0 / 0.8, 1e-9);
}

TEST(StorageExact, MatchesGreedyWhenBestRatioClusterAlsoHasBestUtility) {
  StorageProblem p = small_storage_problem();
  std::swap(p.clusters[0].utility, p.clusters[1].utility);  // standard: u=1.0
  EXPECT_NEAR(solve_storage_exact(p).total_utility,
              solve_storage_greedy(p).total_utility, 1e-6);
}

TEST(StorageExact, RecoversFeasibilityGreedyLoses) {
  // Greedy spends the budget on the better-u/p (pricier) cluster and runs
  // dry before placing everything; the exact solver finds the complete
  // assignment: chunk 0 on "pricey", chunks 1–2 on "cheap" ($1.00 exactly,
  // utility 10 + 4.5 + 4 = 18.5).
  StorageProblem p;
  p.chunk_bytes = 1.0;  // 1-byte chunks for easy arithmetic
  p.clusters = {
      {"pricey", 1.0, 0.4e9, 3.0},  // $0.40 per chunk-hour, 3 slots
      {"cheap", 0.5, 0.3e9, 10.0},  // $0.30 per chunk-hour, 10 slots
  };
  p.budget_per_hour = 1.0;
  p.chunks = {{{0, 0}, 10.0}, {{0, 1}, 9.0}, {{0, 2}, 8.0}};
  const StorageAssignment greedy = solve_storage_greedy(p);
  EXPECT_FALSE(greedy.feasible);  // 0.4 + 0.4 spent, third chunk unplaceable
  const StorageAssignment exact = solve_storage_exact(p);
  ASSERT_TRUE(exact.feasible);
  EXPECT_NEAR(exact.total_utility, 18.5, 1e-9);
  EXPECT_NEAR(exact.cost_per_hour, 1.0, 1e-9);
}

TEST(StorageExact, InfeasibleWhenNothingFits) {
  StorageProblem p = small_storage_problem();
  p.budget_per_hour = 0.0;
  // Zero budget: no chunk can be stored at a positive price.
  const StorageAssignment a = solve_storage_exact(p);
  EXPECT_FALSE(a.feasible);
}

TEST(StorageAudit, ThrowsOnCapacityViolation) {
  StorageProblem p = small_storage_problem();
  p.clusters[0].capacity_bytes = 1.0 * kChunkBytes;
  std::vector<int> bad(p.chunks.size(), 0);  // everything on cluster 0
  EXPECT_THROW((void)audit_storage_assignment(p, bad), util::InvariantError);
}

TEST(StorageChannelUtility, SumsOnlyTheChannel) {
  StorageProblem p = small_storage_problem();
  p.chunks[3].ref.channel = 1;
  p.chunks[4].ref.channel = 1;
  const StorageAssignment a = solve_storage_greedy(p);
  const std::vector<double> u = storage_utility_by_channel(p, a, 8);
  ASSERT_EQ(u.size(), 8u);
  EXPECT_NEAR(u[0] + u[1], a.total_utility, 1e-9);
  EXPECT_GT(u[0], 0.0);
  EXPECT_GT(u[1], 0.0);
  EXPECT_DOUBLE_EQ(u[7], 0.0);
  // A chunk on a channel past num_channels is a caller error.
  EXPECT_THROW((void)storage_utility_by_channel(p, a, 1),
               util::PreconditionError);
}

class StorageRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(StorageRandomSweep, GreedyNeverBeatsExactAndBothRespectConstraints) {
  util::Rng rng(testing::sweep_seed(GetParam(), 7919, 0));
  StorageProblem p;
  p.chunk_bytes = 1.0;  // slots == capacity_bytes
  const int clusters = 2 + GetParam() % 2;
  for (int f = 0; f < clusters; ++f) {
    NfsClusterSpec spec;
    spec.name = "c" + std::to_string(f);
    spec.utility = rng.uniform(0.3, 1.0);
    spec.price_per_gb_hour = rng.uniform(0.5, 3.0) * 1e9;  // $0.5–3 per chunk
    spec.capacity_bytes = std::floor(rng.uniform(2.0, 6.0));  // 2–5 slots
    p.clusters.push_back(spec);
  }
  const int chunks = 4 + GetParam() % 5;
  for (int i = 0; i < chunks; ++i) {
    p.chunks.push_back({{0, i}, rng.uniform(0.0, 10.0)});
  }
  p.budget_per_hour = rng.uniform(1.0, 12.0);

  const StorageAssignment greedy = solve_storage_greedy(p);
  const StorageAssignment exact = solve_storage_exact(p);
  // A feasible greedy solution implies a feasible instance, and exact must
  // then match or beat it. (Greedy may miss feasibility the exact solver
  // finds, and its partial utility is not comparable in that case.)
  if (greedy.feasible) {
    ASSERT_TRUE(exact.feasible);
    EXPECT_GE(exact.total_utility, greedy.total_utility - 1e-9);
    (void)audit_storage_assignment(p, greedy.cluster_of);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageRandomSweep, ::testing::Range(1, 16));

// ----------------------------------------------------------------- VM

VmProblem small_vm_problem(double budget = 100.0) {
  VmProblem p;
  p.clusters = paper_vm_clusters();
  p.vm_bandwidth = 1'250'000.0;
  p.budget_per_hour = budget;
  for (int i = 0; i < 5; ++i) {
    p.chunks.push_back({{0, i}, (i + 1) * 10e6});  // 8..40 VMs total demand
  }
  return p;
}

TEST(VmGreedy, MeetsDemandExactly) {
  const VmProblem p = small_vm_problem();
  const VmAllocation a = solve_vm_greedy(p);
  EXPECT_TRUE(a.feasible);
  for (std::size_t i = 0; i < p.chunks.size(); ++i) {
    const double row = std::accumulate(a.z[i].begin(), a.z[i].end(), 0.0);
    EXPECT_NEAR(row, p.chunks[i].demand / p.vm_bandwidth, 1e-9);
  }
}

TEST(VmGreedy, FillsBestRatioClusterFirst) {
  const VmProblem p = small_vm_problem();
  const VmAllocation a = solve_vm_greedy(p);
  // Demand = 120 VMs total: standard (75) fills, then advanced (45) —
  // medium has the worst ũ/p̃ and stays empty.
  EXPECT_NEAR(a.per_cluster_total[0], 75.0, 1e-9);
  EXPECT_NEAR(a.per_cluster_total[2], 45.0, 1e-9);
  EXPECT_NEAR(a.per_cluster_total[1], 0.0, 1e-9);
}

TEST(VmGreedy, RespectsBudget) {
  const VmProblem p = small_vm_problem(20.0);
  const VmAllocation a = solve_vm_greedy(p);
  EXPECT_FALSE(a.feasible);  // 120 VMs cannot fit in $20/h
  EXPECT_LE(a.cost_per_hour, 20.0 + 1e-9);
}

TEST(VmGreedy, HighDemandChunksServedFirstUnderPressure) {
  const VmProblem p = small_vm_problem(5.0);  // ~11 standard VMs affordable
  const VmAllocation a = solve_vm_greedy(p);
  // The largest chunk (index 4, 32 VMs) is served before chunk 0.
  const double row4 = std::accumulate(a.z[4].begin(), a.z[4].end(), 0.0);
  const double row0 = std::accumulate(a.z[0].begin(), a.z[0].end(), 0.0);
  EXPECT_GT(row4, 0.0);
  EXPECT_DOUBLE_EQ(row0, 0.0);
}

TEST(VmGreedy, ZeroDemandZeroAllocation) {
  VmProblem p = small_vm_problem();
  for (ChunkDemand& c : p.chunks) c.demand = 0.0;
  const VmAllocation a = solve_vm_greedy(p);
  EXPECT_TRUE(a.feasible);
  EXPECT_DOUBLE_EQ(a.cost_per_hour, 0.0);
  EXPECT_DOUBLE_EQ(a.total_utility, 0.0);
}

TEST(VmExact, MatchesHandSolvedAggregate) {
  // Demand 120 VMs, paper clusters, loose budget: the LP maximizes utility
  // by preferring advanced (1.0) and medium (0.8) over standard (0.6) as
  // long as the budget allows; with B = $100: advanced 45 + medium 30 +
  // standard 45 = 120 VMs costs 36 + 21 + 20.25 = $77.25 and is optimal.
  const VmProblem p = small_vm_problem(100.0);
  const VmAllocation exact = solve_vm_exact(p);
  ASSERT_TRUE(exact.feasible);
  EXPECT_NEAR(exact.per_cluster_total[2], 45.0, 1e-6);
  EXPECT_NEAR(exact.per_cluster_total[1], 30.0, 1e-6);
  EXPECT_NEAR(exact.per_cluster_total[0], 45.0, 1e-6);
  EXPECT_NEAR(exact.total_utility, 45.0 + 24.0 + 27.0, 1e-6);
  EXPECT_NEAR(exact.cost_per_hour, 77.25, 1e-6);
}

TEST(VmExact, BudgetTightVertex) {
  // The cheapest way to 120 VMs costs $66.75/h (75 standard + 30 medium +
  // 15 advanced); a $70 budget therefore forces the equality+budget vertex.
  const VmProblem p = small_vm_problem(70.0);
  const VmAllocation exact = solve_vm_exact(p);
  ASSERT_TRUE(exact.feasible);
  EXPECT_LE(exact.cost_per_hour, 70.0 + 1e-6);
  const double total = std::accumulate(exact.per_cluster_total.begin(),
                                       exact.per_cluster_total.end(), 0.0);
  EXPECT_NEAR(total, 120.0, 1e-6);
}

TEST(VmExact, JustBelowCheapestCostIsInfeasible) {
  const VmProblem p = small_vm_problem(66.0);
  EXPECT_FALSE(solve_vm_exact(p).feasible);
}

TEST(VmExact, InfeasibleWhenDemandExceedsClusters) {
  VmProblem p = small_vm_problem();
  p.chunks[0].demand = 200.0 * p.vm_bandwidth;  // 200 VMs > 150 available
  const VmAllocation exact = solve_vm_exact(p);
  EXPECT_FALSE(exact.feasible);
}

TEST(VmExact, InfeasibleWhenBudgetTooSmall) {
  const VmProblem p = small_vm_problem(1.0);
  EXPECT_FALSE(solve_vm_exact(p).feasible);
}

class VmRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(VmRandomSweep, GreedyNeverBeatsExact) {
  util::Rng rng(testing::sweep_seed(GetParam(), 104729, 0));
  VmProblem p;
  p.vm_bandwidth = 1'250'000.0;
  const int clusters = 2 + GetParam() % 3;
  for (int v = 0; v < clusters; ++v) {
    // Appended, not `"v" + std::to_string(v)`: GCC 12 at -O3 warns
    // -Wrestrict on the latter.
    std::string name = "v";
    name += std::to_string(v);
    p.clusters.push_back({std::move(name), rng.uniform(0.4, 1.0),
                          rng.uniform(0.2, 1.0),
                          static_cast<int>(rng.uniform(10.0, 60.0))});
  }
  for (int i = 0; i < 6; ++i) {
    p.chunks.push_back({{0, i}, rng.uniform(0.0, 30.0) * p.vm_bandwidth});
  }
  p.budget_per_hour = rng.uniform(5.0, 80.0);

  const VmAllocation greedy = solve_vm_greedy(p);
  const VmAllocation exact = solve_vm_exact(p);
  // Greedy fills by ũ/p̃, not by price, so it can run out of budget on
  // instances the exact solver still satisfies — but never the reverse.
  if (greedy.feasible) {
    ASSERT_TRUE(exact.feasible);
    EXPECT_GE(exact.total_utility, greedy.total_utility - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmRandomSweep, ::testing::Range(1, 16));

TEST(VmChannelUtility, PartitionsTotal) {
  VmProblem p = small_vm_problem();
  p.chunks[0].ref.channel = 1;
  const VmAllocation a = solve_vm_greedy(p);
  const std::vector<double> u = vm_utility_by_channel(p, a, 2);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_NEAR(u[0] + u[1], a.total_utility, 1e-9);
}

// ------------------------------------------------------------- packing

TEST(Packing, InstanceCountIsCeilOfClusterTotal) {
  const VmProblem p = small_vm_problem();
  const VmAllocation a = solve_vm_greedy(p);
  const InstancePlan plan = pack_instances(p, a);
  for (std::size_t v = 0; v < p.clusters.size(); ++v) {
    EXPECT_EQ(plan.per_cluster_count[v],
              static_cast<int>(std::ceil(a.per_cluster_total[v] - 1e-9)));
    EXPECT_LE(plan.per_cluster_count[v], p.clusters[v].max_vms);
  }
}

TEST(Packing, SlicesPreserveAllocation) {
  const VmProblem p = small_vm_problem();
  const VmAllocation a = solve_vm_greedy(p);
  const InstancePlan plan = pack_instances(p, a);
  std::vector<std::vector<double>> rebuilt(
      p.chunks.size(), std::vector<double>(p.clusters.size(), 0.0));
  for (const VmInstance& inst : plan.instances) {
    double load = 0.0;
    for (const auto& [chunk, fraction] : inst.slices) {
      rebuilt[chunk][inst.cluster] += fraction;
      load += fraction;
    }
    EXPECT_LE(load, 1.0 + 1e-9);  // one VM of capacity per instance
  }
  for (std::size_t i = 0; i < p.chunks.size(); ++i) {
    for (std::size_t v = 0; v < p.clusters.size(); ++v) {
      EXPECT_NEAR(rebuilt[i][v], a.z[i][v], 1e-9);
    }
  }
}

TEST(Packing, CostUsesWholeInstances) {
  const VmProblem p = small_vm_problem();
  const VmAllocation a = solve_vm_greedy(p);
  const InstancePlan plan = pack_instances(p, a);
  double expected = 0.0;
  for (std::size_t v = 0; v < p.clusters.size(); ++v) {
    expected += plan.per_cluster_count[v] * p.clusters[v].price_per_hour;
  }
  EXPECT_NEAR(plan.cost_per_hour, expected, 1e-9);
  EXPECT_GE(plan.cost_per_hour, a.cost_per_hour - 1e-9);  // rounding up
}

TEST(Packing, ConsecutiveChunksShareInstances) {
  // Two chunks of 0.5 VMs each in one channel must share a single VM.
  VmProblem p;
  p.clusters = {{"only", 1.0, 1.0, 10}};
  p.vm_bandwidth = 1'000'000.0;
  p.budget_per_hour = 100.0;
  p.chunks = {{{0, 0}, 0.5e6}, {{0, 1}, 0.5e6}};
  const VmAllocation a = solve_vm_greedy(p);
  const InstancePlan plan = pack_instances(p, a);
  ASSERT_EQ(plan.instances.size(), 1u);
  EXPECT_EQ(plan.instances[0].slices.size(), 2u);
}

TEST(Packing, LargeChunkSplitsAcrossInstances) {
  VmProblem p;
  p.clusters = {{"only", 1.0, 1.0, 10}};
  p.vm_bandwidth = 1'000'000.0;
  p.budget_per_hour = 100.0;
  p.chunks = {{{0, 0}, 2.5e6}};  // 2.5 VMs
  const VmAllocation a = solve_vm_greedy(p);
  const InstancePlan plan = pack_instances(p, a);
  EXPECT_EQ(plan.per_cluster_count[0], 3);
  double total = 0.0;
  for (const VmInstance& inst : plan.instances) {
    for (const auto& [chunk, fraction] : inst.slices) total += fraction;
  }
  EXPECT_NEAR(total, 2.5, 1e-9);
}

TEST(Packing, SlicesWithinInstanceFollowChannelChunkOrder) {
  // The packer walks chunks in (channel, chunk) order, so a shared VM's
  // slices are consecutive in that order — the paper's "maximally allow
  // consecutive chunks in one channel to be served by the VM".
  VmProblem p;
  p.clusters = {{"only", 1.0, 1.0, 50}};
  p.vm_bandwidth = 1'000'000.0;
  p.budget_per_hour = 100.0;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 4; ++i) {
      p.chunks.push_back({{c, i}, 0.3e6});
    }
  }
  const VmAllocation a = solve_vm_greedy(p);
  const InstancePlan plan = pack_instances(p, a);
  for (const VmInstance& inst : plan.instances) {
    for (std::size_t s = 1; s < inst.slices.size(); ++s) {
      const ChunkRef prev = p.chunks[inst.slices[s - 1].first].ref;
      const ChunkRef cur = p.chunks[inst.slices[s].first].ref;
      const bool ordered = prev.channel < cur.channel ||
                           (prev.channel == cur.channel && prev.chunk <= cur.chunk);
      EXPECT_TRUE(ordered) << "instance slices out of (channel, chunk) order";
    }
  }
}

TEST(Packing, SameChannelFractionsShareBeforeCrossingChannels) {
  // 0.3-VM fractions: chunks (0,0),(0,1),(0,2) fill the first VM to 0.9;
  // channel 1 starts in the second VM only because the first cannot hold
  // another 0.3... it can (0.9 + 0.3 > 1), so (1,0) opens instance 2.
  VmProblem p;
  p.clusters = {{"only", 1.0, 1.0, 50}};
  p.vm_bandwidth = 1'000'000.0;
  p.budget_per_hour = 100.0;
  p.chunks = {{{0, 0}, 0.3e6}, {{0, 1}, 0.3e6}, {{0, 2}, 0.3e6}, {{1, 0}, 0.3e6}};
  const VmAllocation a = solve_vm_greedy(p);
  const InstancePlan plan = pack_instances(p, a);
  ASSERT_EQ(plan.per_cluster_count[0], 2);
  // First instance holds exactly channel 0's three fractions plus the
  // 0.1-VM head of (1,0)'s share (fractions may straddle instances).
  const VmInstance& first = plan.instances.front();
  double channel0 = 0.0;
  for (const auto& [chunk, fraction] : first.slices) {
    if (p.chunks[chunk].ref.channel == 0) channel0 += fraction;
  }
  EXPECT_NEAR(channel0, 0.9, 1e-9);
}

TEST(VmAudit, DetectsOverCapacity) {
  VmProblem p = small_vm_problem();
  std::vector<std::vector<double>> z(p.chunks.size(),
                                     std::vector<double>(p.clusters.size(), 0.0));
  z[0][1] = p.clusters[1].max_vms + 5.0;  // over medium's N_v
  EXPECT_THROW((void)audit_vm_allocation(p, z), util::InvariantError);
}

TEST(VmProblemTotals, TotalDemandInVmUnits) {
  const VmProblem p = small_vm_problem();
  EXPECT_NEAR(p.total_vm_demand(), (10.0 + 20 + 30 + 40 + 50) * 1e6 / 1.25e6,
              1e-9);
}

}  // namespace
}  // namespace cloudmedia::core
