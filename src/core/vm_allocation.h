#pragma once

#include <cstddef>
#include <vector>

#include "core/clusters.h"
#include "core/storage_rental.h"  // ChunkRef / ChunkDemand

namespace cloudmedia::core {

/// The optimal VM configuration problem of Sec. V-A2 (Eqn. (7)): choose
/// z_iv — the (possibly fractional) number of VMs from virtual cluster v
/// serving chunk i — maximizing Σ ũ_v z_iv subject to
///   Σ_v z_iv = Δ_i / R   (demand met per chunk),
///   Σ_i z_iv <= N_v      (cluster size),
///   Σ p̃_v z_iv <= B_M   (VM budget).
struct VmProblem {
  std::vector<VmClusterSpec> clusters;
  std::vector<ChunkDemand> chunks;   ///< demand = Δ_i, bytes/s
  double vm_bandwidth = 0.0;         ///< R, bytes/s
  double budget_per_hour = 0.0;      ///< B_M

  void validate() const;

  /// Total VMs demanded: Σ_i Δ_i / R.
  [[nodiscard]] double total_vm_demand() const;
};

struct VmAllocation {
  /// z[i][v]: VM count from cluster v serving chunk i (fractional allowed).
  std::vector<std::vector<double>> z;
  bool feasible = false;
  double total_utility = 0.0;   ///< Σ ũ_v z_iv
  double cost_per_hour = 0.0;   ///< Σ p̃_v z_iv (fractional VM-hours)
  /// Σ_i z_iv per cluster.
  std::vector<double> per_cluster_total;
};

/// The paper's VM configuration heuristic: clusters in decreasing marginal
/// utility per unit cost ũ_v/p̃_v; each chunk's demand filled from the best
/// cluster with spare VMs, cascading to the next, while the running budget
/// allows. Chunks are visited in decreasing Δ (the order the paper leaves
/// open; matches the storage heuristic).
[[nodiscard]] VmAllocation solve_vm_greedy(const VmProblem& problem);

/// Exact optimum of Eqn. (7). Because every chunk contributes to the
/// objective and the constraints only through Σ_i z_iv, the problem reduces
/// to a 3-constraint LP over per-cluster totals Z_v; we solve it exactly by
/// enumerating vertices of the feasible polytope. Used as the oracle for
/// heuristic-quality tests and the ablation bench.
[[nodiscard]] VmAllocation solve_vm_exact(const VmProblem& problem);

/// Audit: recompute utility/cost from z and throw if any constraint of
/// Eqn. (7) is violated.
[[nodiscard]] VmAllocation audit_vm_allocation(
    const VmProblem& problem, const std::vector<std::vector<double>>& z);

/// Aggregate VM utility of each of `num_channels` channels (Fig. 9's
/// per-channel series) in one pass over the chunks; each channel sums its
/// chunks in chunk order.
[[nodiscard]] std::vector<double> vm_utility_by_channel(
    const VmProblem& problem, const VmAllocation& allocation,
    int num_channels);

/// A concrete packing of fractional z_iv onto integer VM instances.
/// The paper: "its integer part corresponds to the number of VMs which will
/// be entirely used to serve chunk i, and the fractional part indicates the
/// fraction of bandwidth used to serve chunk i at a shared VM... we will
/// maximally allow consecutive chunks in one channel to be served by the
/// [shared] VM" (Sec. V-A2).
struct VmInstance {
  std::size_t cluster = 0;
  /// (chunk index into VmProblem::chunks, fraction of this VM) pairs.
  std::vector<std::pair<std::size_t, double>> slices;
};

struct InstancePlan {
  std::vector<VmInstance> instances;
  std::vector<int> per_cluster_count;   ///< booted VMs per cluster
  double cost_per_hour = 0.0;           ///< integer instances × price
};

/// Pack an allocation into instances: full VMs for integer parts, then
/// shared VMs filled with consecutive chunks of the same channel first.
[[nodiscard]] InstancePlan pack_instances(const VmProblem& problem,
                                          const VmAllocation& allocation);

}  // namespace cloudmedia::core
