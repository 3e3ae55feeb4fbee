#pragma once

#include <cstddef>
#include <vector>

#include "core/clusters.h"

namespace cloudmedia::core {

/// Identifies chunk i of channel c across the whole library.
struct ChunkRef {
  int channel = 0;
  int chunk = 0;
};

/// One entry of the storage-rental instance: a chunk and its cloud demand
/// Δ_i^{(c)} (bytes/s), the weight in the objective of Eqn. (6).
struct ChunkDemand {
  ChunkRef ref;
  double demand = 0.0;
};

/// The optimal storage rental problem of Sec. V-A1 (Eqn. (6)):
/// place each chunk on exactly one NFS cluster, maximizing
/// Σ u_f Δ_i x_if subject to cluster capacities and the storage budget B_S.
struct StorageProblem {
  std::vector<NfsClusterSpec> clusters;
  std::vector<ChunkDemand> chunks;
  double chunk_bytes = 0.0;        ///< rT0, size of every chunk
  double budget_per_hour = 0.0;    ///< B_S

  void validate() const;
};

struct StorageAssignment {
  /// cluster index per chunk (parallel to StorageProblem::chunks);
  /// -1 where unassigned (only when infeasible).
  std::vector<int> cluster_of;
  bool feasible = false;
  double total_utility = 0.0;     ///< Σ u_f Δ_i x_if
  double cost_per_hour = 0.0;     ///< Σ p_f · rT0 · x_if
};

/// The paper's storage rental heuristic: chunks in decreasing Δ, clusters
/// in decreasing marginal utility per unit cost u_f/p_f; first-fit with a
/// running budget check. Infeasible (some chunk unplaced) signals that the
/// provider's budget is too low for current prices (Sec. V-A1).
[[nodiscard]] StorageAssignment solve_storage_greedy(const StorageProblem& problem);

/// Exact solution by depth-first branch-and-bound, for validating the
/// heuristic on small instances (clusters^chunks up to ~1e7 nodes).
[[nodiscard]] StorageAssignment solve_storage_exact(const StorageProblem& problem);

/// Objective/cost/constraint audit of an assignment; throws on a violated
/// constraint so tests can use it as an oracle.
[[nodiscard]] StorageAssignment audit_storage_assignment(
    const StorageProblem& problem, const std::vector<int>& cluster_of);

/// Aggregate storage utility of each of `num_channels` channels under an
/// assignment — the per-channel series plotted in Fig. 8 — in one pass
/// over the chunks; each channel sums its chunks in chunk order.
[[nodiscard]] std::vector<double> storage_utility_by_channel(
    const StorageProblem& problem, const StorageAssignment& assignment,
    int num_channels);

}  // namespace cloudmedia::core
