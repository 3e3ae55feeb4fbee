#include "core/storage_rental.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/check.h"

namespace cloudmedia::core {

void StorageProblem::validate() const {
  CM_EXPECTS(!clusters.empty());
  for (const NfsClusterSpec& c : clusters) c.validate();
  CM_EXPECTS(chunk_bytes > 0.0);
  CM_EXPECTS(budget_per_hour >= 0.0);
  for (const ChunkDemand& d : chunks) CM_EXPECTS(d.demand >= 0.0);
}

namespace {

struct ClusterState {
  std::size_t index;
  int slots;             ///< remaining chunk slots: floor(S_f / rT0)
  double cost_per_chunk; ///< p_f · rT0 per hour
  double utility;
};

std::vector<ClusterState> make_states(const StorageProblem& problem) {
  std::vector<ClusterState> states;
  states.reserve(problem.clusters.size());
  for (std::size_t f = 0; f < problem.clusters.size(); ++f) {
    const NfsClusterSpec& spec = problem.clusters[f];
    states.push_back(ClusterState{
        f,
        static_cast<int>(std::floor(spec.capacity_bytes / problem.chunk_bytes)),
        spec.price_per_byte_hour() * problem.chunk_bytes,
        spec.utility,
    });
  }
  return states;
}

}  // namespace

StorageAssignment solve_storage_greedy(const StorageProblem& problem) {
  problem.validate();

  std::vector<ClusterState> states = make_states(problem);
  // Clusters by decreasing marginal utility per unit cost u_f / p_f
  // (Sec. V-A1); name-independent deterministic tie-break by index.
  std::vector<std::size_t> cluster_order(states.size());
  std::iota(cluster_order.begin(), cluster_order.end(), std::size_t{0});
  std::stable_sort(cluster_order.begin(), cluster_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double ra = states[a].utility / states[a].cost_per_chunk;
                     const double rb = states[b].utility / states[b].cost_per_chunk;
                     return ra > rb;
                   });

  // Chunks by decreasing demand Δ.
  std::vector<std::size_t> chunk_order(problem.chunks.size());
  std::iota(chunk_order.begin(), chunk_order.end(), std::size_t{0});
  std::stable_sort(chunk_order.begin(), chunk_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return problem.chunks[a].demand > problem.chunks[b].demand;
                   });

  StorageAssignment out;
  out.cluster_of.assign(problem.chunks.size(), -1);
  out.feasible = true;
  double spent = 0.0;

  for (std::size_t idx : chunk_order) {
    bool placed = false;
    for (std::size_t rank : cluster_order) {
      ClusterState& s = states[rank];
      if (s.slots <= 0) continue;
      if (spent + s.cost_per_chunk > problem.budget_per_hour + 1e-12) continue;
      --s.slots;
      spent += s.cost_per_chunk;
      out.cluster_of[idx] = static_cast<int>(s.index);
      out.total_utility += s.utility * problem.chunks[idx].demand;
      placed = true;
      break;
    }
    if (!placed) out.feasible = false;  // budget or capacity exhausted
  }
  out.cost_per_hour = spent;
  return out;
}

namespace {

// Depth-first exact search. Chunks are visited in decreasing demand so the
// optimistic bound (remaining demand × best utility) prunes aggressively.
struct ExactSearch {
  const StorageProblem& problem;
  std::vector<ClusterState> states;
  std::vector<std::size_t> chunk_order;
  std::vector<double> suffix_demand;
  double best_utility = -1.0;
  std::vector<int> best_assignment;
  std::vector<int> current;
  double current_utility = 0.0;
  double current_cost = 0.0;
  double max_utility = 0.0;
  std::uint64_t nodes = 0;
  static constexpr std::uint64_t kNodeCap = 20'000'000;

  explicit ExactSearch(const StorageProblem& p)
      : problem(p), states(make_states(p)) {
    chunk_order.resize(p.chunks.size());
    std::iota(chunk_order.begin(), chunk_order.end(), std::size_t{0});
    std::stable_sort(chunk_order.begin(), chunk_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return p.chunks[a].demand > p.chunks[b].demand;
                     });
    suffix_demand.assign(p.chunks.size() + 1, 0.0);
    for (std::size_t k = p.chunks.size(); k-- > 0;) {
      suffix_demand[k] =
          suffix_demand[k + 1] + p.chunks[chunk_order[k]].demand;
    }
    for (const ClusterState& s : states)
      max_utility = std::max(max_utility, s.utility);
    current.assign(p.chunks.size(), -1);
  }

  void dfs(std::size_t depth) {
    if (++nodes > kNodeCap) {
      throw util::PreconditionError(
          "solve_storage_exact: instance too large for exact search");
    }
    if (depth == chunk_order.size()) {
      if (current_utility > best_utility) {
        best_utility = current_utility;
        best_assignment = current;
      }
      return;
    }
    // Optimistic bound: everything left placed at the best utility.
    if (current_utility + suffix_demand[depth] * max_utility <=
        best_utility + 1e-12) {
      return;
    }
    const std::size_t idx = chunk_order[depth];
    for (ClusterState& s : states) {
      if (s.slots <= 0) continue;
      if (current_cost + s.cost_per_chunk > problem.budget_per_hour + 1e-12)
        continue;
      --s.slots;
      current_cost += s.cost_per_chunk;
      current_utility += s.utility * problem.chunks[idx].demand;
      current[idx] = static_cast<int>(s.index);
      dfs(depth + 1);
      current[idx] = -1;
      current_utility -= s.utility * problem.chunks[idx].demand;
      current_cost -= s.cost_per_chunk;
      ++s.slots;
    }
  }
};

}  // namespace

StorageAssignment solve_storage_exact(const StorageProblem& problem) {
  problem.validate();
  ExactSearch search(problem);
  search.dfs(0);
  StorageAssignment out;
  if (search.best_utility < 0.0) {
    // No complete assignment exists under the budget/capacity.
    out.cluster_of.assign(problem.chunks.size(), -1);
    out.feasible = false;
    return out;
  }
  return audit_storage_assignment(problem, search.best_assignment);
}

StorageAssignment audit_storage_assignment(const StorageProblem& problem,
                                           const std::vector<int>& cluster_of) {
  problem.validate();
  CM_EXPECTS(cluster_of.size() == problem.chunks.size());
  std::vector<ClusterState> states = make_states(problem);

  StorageAssignment out;
  out.cluster_of = cluster_of;
  out.feasible = true;
  for (std::size_t i = 0; i < cluster_of.size(); ++i) {
    const int f = cluster_of[i];
    if (f < 0) {
      out.feasible = false;
      continue;
    }
    CM_EXPECTS(static_cast<std::size_t>(f) < problem.clusters.size());
    ClusterState& s = states[static_cast<std::size_t>(f)];
    CM_ENSURES(s.slots > 0);  // capacity constraint
    --s.slots;
    out.cost_per_hour += s.cost_per_chunk;
    out.total_utility += s.utility * problem.chunks[i].demand;
  }
  CM_ENSURES(out.cost_per_hour <= problem.budget_per_hour + 1e-9);
  return out;
}

std::vector<double> storage_utility_by_channel(
    const StorageProblem& problem, const StorageAssignment& assignment,
    int num_channels) {
  CM_EXPECTS(assignment.cluster_of.size() == problem.chunks.size());
  CM_EXPECTS(num_channels >= 0);
  std::vector<double> utility(static_cast<std::size_t>(num_channels), 0.0);
  for (std::size_t i = 0; i < problem.chunks.size(); ++i) {
    const int channel = problem.chunks[i].ref.channel;
    CM_EXPECTS(channel >= 0 && channel < num_channels);
    const int f = assignment.cluster_of[i];
    if (f < 0) continue;
    utility[static_cast<std::size_t>(channel)] +=
        problem.clusters[static_cast<std::size_t>(f)].utility *
        problem.chunks[i].demand;
  }
  return utility;
}

}  // namespace cloudmedia::core
