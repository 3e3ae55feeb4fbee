// Ablation: the paper's greedy heuristics vs exact optima for the two
// Sec.-V optimization problems, on randomized instances at paper scale
// (20 channels × 20 chunks for VM allocation; smaller instances for the
// exponential exact storage search).
//
// Known structural result (also unit-tested): ranking by marginal utility
// per unit cost is optimal when budgets bind, but leaves utility on the
// table when the budget is slack — the exact optimum then buys the
// higher-utility clusters outright.
//
// A bad flag value exits 2 with `bench_ablation_heuristic_vs_exact:
// <message>`.
//
// Flags: --instances=25 --seed=42

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>

#include "core/clusters.h"
#include "core/storage_rental.h"
#include "core/vm_allocation.h"
#include "expr/flags.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace cloudmedia;

int main(int argc, char** argv) {
  int instances = 25;
  std::uint64_t seed = 42;
  try {
    const expr::Flags flags(argc, argv);
    flags.require_known({"instances", "seed"});
    instances = flags.get("instances", instances);
    seed = flags.get_u64("seed", seed);
    if (instances < 1) {
      expr::refuse_value("--instances must be >= 1",
                         static_cast<double>(instances));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ablation_heuristic_vs_exact: %s\n", e.what());
    return 2;
  }
  util::Rng rng(seed);

  std::printf("Ablation: paper heuristics vs exact optima (%d random "
              "instances each)\n", instances);

  // ---------------------------------------------------------------- VM
  util::SummaryStats vm_gap, vm_greedy_us, vm_exact_us;
  int vm_feasible = 0;
  for (int k = 0; k < instances; ++k) {
    core::VmProblem p;
    p.clusters = core::paper_vm_clusters();
    p.vm_bandwidth = 1'250'000.0;
    p.budget_per_hour = rng.uniform(40.0, 100.0);
    for (int c = 0; c < 20; ++c) {
      for (int i = 0; i < 20; ++i) {
        p.chunks.push_back({{c, i}, rng.uniform(0.0, 0.25) * p.vm_bandwidth});
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    const core::VmAllocation greedy = core::solve_vm_greedy(p);
    const auto t1 = std::chrono::steady_clock::now();
    const core::VmAllocation exact = core::solve_vm_exact(p);
    const auto t2 = std::chrono::steady_clock::now();
    vm_greedy_us.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
    vm_exact_us.add(std::chrono::duration<double, std::micro>(t2 - t1).count());
    if (greedy.feasible && exact.feasible) {
      ++vm_feasible;
      vm_gap.add(100.0 * (1.0 - greedy.total_utility / exact.total_utility));
    }
  }
  std::printf("\nVM configuration (Eqn. 7), 400 chunks, paper clusters:\n");
  std::printf("  feasible instances       : %d/%d\n", vm_feasible, instances);
  std::printf("  greedy utility gap       : mean %.2f%%, worst %.2f%%\n",
              vm_gap.mean(), vm_gap.max());
  std::printf("  runtime                  : greedy %.0f us, exact %.0f us\n",
              vm_greedy_us.mean(), vm_exact_us.mean());

  // ------------------------------------------------------------- storage
  util::SummaryStats st_gap, st_greedy_us, st_exact_us;
  int st_feasible = 0;
  for (int k = 0; k < instances; ++k) {
    core::StorageProblem p;
    p.clusters = core::paper_nfs_clusters();
    // Shrink cluster capacity so placement decisions actually bind.
    p.clusters[0].capacity_bytes = rng.uniform(3.0, 7.0) * 15e6;
    p.clusters[1].capacity_bytes = rng.uniform(3.0, 7.0) * 15e6;
    p.chunk_bytes = 15e6;
    p.budget_per_hour = rng.uniform(2e-5, 2e-4) * 15.0;
    const int chunks = 8 + static_cast<int>(rng.uniform(0.0, 3.0));
    for (int i = 0; i < chunks; ++i) {
      p.chunks.push_back({{0, i}, rng.uniform(0.0, 5e6)});
    }
    const auto t0 = std::chrono::steady_clock::now();
    const core::StorageAssignment greedy = core::solve_storage_greedy(p);
    const auto t1 = std::chrono::steady_clock::now();
    const core::StorageAssignment exact = core::solve_storage_exact(p);
    const auto t2 = std::chrono::steady_clock::now();
    st_greedy_us.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
    st_exact_us.add(std::chrono::duration<double, std::micro>(t2 - t1).count());
    if (greedy.feasible && exact.feasible) {
      ++st_feasible;
      st_gap.add(100.0 * (1.0 - greedy.total_utility / exact.total_utility));
    }
  }
  std::printf("\nStorage rental (Eqn. 6), 8-10 chunks, tight clusters:\n");
  std::printf("  feasible instances       : %d/%d\n", st_feasible, instances);
  std::printf("  greedy utility gap       : mean %.2f%%, worst %.2f%%\n",
              st_gap.mean(), st_gap.max());
  std::printf("  runtime                  : greedy %.0f us, exact %.0f us\n",
              st_greedy_us.mean(), st_exact_us.mean());

  std::printf("\nreading: the heuristics run orders of magnitude faster and "
              "their gap quantifies the price of utility-per-cost greed; the "
              "paper's hourly control loop needs the speed, not the last "
              "percent of utility.\n");
  return 0;
}
