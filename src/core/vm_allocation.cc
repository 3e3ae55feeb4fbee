#include "core/vm_allocation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/check.h"

namespace cloudmedia::core {

namespace {
constexpr double kEps = 1e-9;
}

void VmProblem::validate() const {
  CM_EXPECTS(!clusters.empty());
  for (const VmClusterSpec& c : clusters) c.validate();
  CM_EXPECTS(vm_bandwidth > 0.0);
  CM_EXPECTS(budget_per_hour >= 0.0);
  for (const ChunkDemand& d : chunks) CM_EXPECTS(d.demand >= 0.0);
}

double VmProblem::total_vm_demand() const {
  double total = 0.0;
  for (const ChunkDemand& d : chunks) total += d.demand / vm_bandwidth;
  return total;
}

VmAllocation solve_vm_greedy(const VmProblem& problem) {
  problem.validate();
  const std::size_t v = problem.clusters.size();
  const std::size_t n = problem.chunks.size();

  // Clusters by decreasing marginal utility per unit cost ũ_v/p̃_v.
  std::vector<std::size_t> cluster_order(v);
  std::iota(cluster_order.begin(), cluster_order.end(), std::size_t{0});
  std::stable_sort(cluster_order.begin(), cluster_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return problem.clusters[a].utility / problem.clusters[a].price_per_hour >
                            problem.clusters[b].utility / problem.clusters[b].price_per_hour;
                   });

  // Chunks by decreasing demand (the paper's storage heuristic order,
  // reused here so high-demand chunks win when the budget binds).
  std::vector<std::size_t> chunk_order(n);
  std::iota(chunk_order.begin(), chunk_order.end(), std::size_t{0});
  std::stable_sort(chunk_order.begin(), chunk_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return problem.chunks[a].demand > problem.chunks[b].demand;
                   });

  VmAllocation out;
  out.z.assign(n, std::vector<double>(v, 0.0));
  out.per_cluster_total.assign(v, 0.0);
  out.feasible = true;

  std::vector<double> remaining(v);
  for (std::size_t i = 0; i < v; ++i)
    remaining[i] = static_cast<double>(problem.clusters[i].max_vms);
  double spent = 0.0;

  for (std::size_t idx : chunk_order) {
    double need = problem.chunks[idx].demand / problem.vm_bandwidth;
    for (std::size_t rank : cluster_order) {
      if (need <= kEps) break;
      const VmClusterSpec& spec = problem.clusters[rank];
      const double by_budget =
          std::max(0.0, (problem.budget_per_hour - spent) / spec.price_per_hour);
      const double take = std::min({need, remaining[rank], by_budget});
      if (take <= kEps) continue;
      out.z[idx][rank] += take;
      out.per_cluster_total[rank] += take;
      remaining[rank] -= take;
      spent += take * spec.price_per_hour;
      out.total_utility += take * spec.utility;
      need -= take;
    }
    if (need > kEps) out.feasible = false;  // budget or clusters exhausted
  }
  out.cost_per_hour = spent;
  return out;
}

namespace {

/// Exact optimum of the aggregate LP:
///   max Σ ũ_v Z_v  s.t.  Σ Z_v = D,  0 <= Z_v <= N_v,  Σ p̃_v Z_v <= B.
/// Vertices have at most two "free" coordinates (equality + possibly tight
/// budget); enumerate all bound patterns. Returns empty vector if
/// infeasible.
std::vector<double> solve_aggregate_lp(const std::vector<VmClusterSpec>& clusters,
                                       double demand, double budget) {
  const std::size_t v = clusters.size();
  std::vector<double> best;
  double best_utility = -1.0;

  const auto consider = [&](const std::vector<double>& z) {
    double sum = 0.0, cost = 0.0, utility = 0.0;
    for (std::size_t i = 0; i < v; ++i) {
      if (z[i] < -kEps || z[i] > static_cast<double>(clusters[i].max_vms) + kEps)
        return;
      sum += z[i];
      cost += z[i] * clusters[i].price_per_hour;
      utility += z[i] * clusters[i].utility;
    }
    if (std::abs(sum - demand) > 1e-6 * std::max(1.0, demand)) return;
    if (cost > budget + kEps * std::max(1.0, budget)) return;
    if (utility > best_utility) {
      best_utility = utility;
      best = z;
    }
  };

  if (demand <= kEps) return std::vector<double>(v, 0.0);

  // Bound pattern per variable: 0 = at lower (0), 1 = at upper (N), 2 = free.
  std::vector<int> pattern(v, 0);
  const std::uint64_t combos = static_cast<std::uint64_t>(std::pow(3.0, static_cast<double>(v)));
  for (std::uint64_t code = 0; code < combos; ++code) {
    std::uint64_t rest = code;
    std::vector<std::size_t> free_vars;
    double bound_sum = 0.0, bound_cost = 0.0;
    for (std::size_t i = 0; i < v; ++i) {
      pattern[i] = static_cast<int>(rest % 3);
      rest /= 3;
      if (pattern[i] == 1) {
        bound_sum += static_cast<double>(clusters[i].max_vms);
        bound_cost += static_cast<double>(clusters[i].max_vms) * clusters[i].price_per_hour;
      } else if (pattern[i] == 2) {
        free_vars.push_back(i);
      }
    }
    if (free_vars.size() > 2) continue;

    std::vector<double> z(v, 0.0);
    for (std::size_t i = 0; i < v; ++i)
      if (pattern[i] == 1) z[i] = static_cast<double>(clusters[i].max_vms);

    if (free_vars.empty()) {
      consider(z);
    } else if (free_vars.size() == 1) {
      z[free_vars[0]] = demand - bound_sum;
      consider(z);
    } else {
      // Two free variables: equality + tight budget.
      const std::size_t f = free_vars[0], g = free_vars[1];
      const double pf = clusters[f].price_per_hour;
      const double pg = clusters[g].price_per_hour;
      if (std::abs(pf - pg) < 1e-12) continue;  // degenerate; other vertices cover
      const double s = demand - bound_sum;
      const double c = budget - bound_cost;
      // Z_f + Z_g = s;  pf Z_f + pg Z_g = c.
      const double zf = (c - pg * s) / (pf - pg);
      z[f] = zf;
      z[g] = s - zf;
      consider(z);
    }
  }
  return best_utility < 0.0 ? std::vector<double>{} : best;
}

}  // namespace

VmAllocation solve_vm_exact(const VmProblem& problem) {
  problem.validate();
  const std::size_t v = problem.clusters.size();
  const std::size_t n = problem.chunks.size();
  CM_EXPECTS(v <= 12);  // 3^v bound patterns

  const std::vector<double> totals =
      solve_aggregate_lp(problem.clusters, problem.total_vm_demand(),
                         problem.budget_per_hour);

  VmAllocation out;
  out.z.assign(n, std::vector<double>(v, 0.0));
  out.per_cluster_total.assign(v, 0.0);
  if (totals.empty()) {
    out.feasible = false;
    return out;
  }

  // Distribute per-cluster totals over chunks (any split attains the same
  // objective); deterministic fill in chunk × cluster index order.
  std::vector<double> pool = totals;
  for (std::size_t i = 0; i < n; ++i) {
    double need = problem.chunks[i].demand / problem.vm_bandwidth;
    for (std::size_t c = 0; c < v && need > kEps; ++c) {
      const double take = std::min(need, pool[c]);
      if (take <= kEps) continue;
      out.z[i][c] = take;
      pool[c] -= take;
      need -= take;
    }
    CM_ENSURES(need <= 1e-6);
  }
  return audit_vm_allocation(problem, out.z);
}

VmAllocation audit_vm_allocation(const VmProblem& problem,
                                 const std::vector<std::vector<double>>& z) {
  problem.validate();
  const std::size_t v = problem.clusters.size();
  const std::size_t n = problem.chunks.size();
  CM_EXPECTS(z.size() == n);

  VmAllocation out;
  out.z = z;
  out.per_cluster_total.assign(v, 0.0);
  out.feasible = true;

  for (std::size_t i = 0; i < n; ++i) {
    CM_EXPECTS(z[i].size() == v);
    double row = 0.0;
    for (std::size_t c = 0; c < v; ++c) {
      CM_ENSURES(z[i][c] >= -kEps);
      row += z[i][c];
      out.per_cluster_total[c] += z[i][c];
      out.cost_per_hour += z[i][c] * problem.clusters[c].price_per_hour;
      out.total_utility += z[i][c] * problem.clusters[c].utility;
    }
    const double need = problem.chunks[i].demand / problem.vm_bandwidth;
    CM_ENSURES(row <= need + 1e-6 * std::max(1.0, need));
    if (row < need - 1e-6 * std::max(1.0, need)) out.feasible = false;
  }
  for (std::size_t c = 0; c < v; ++c) {
    CM_ENSURES(out.per_cluster_total[c] <=
               static_cast<double>(problem.clusters[c].max_vms) + 1e-6);
  }
  CM_ENSURES(out.cost_per_hour <= problem.budget_per_hour + 1e-6);
  return out;
}

std::vector<double> vm_utility_by_channel(const VmProblem& problem,
                                          const VmAllocation& allocation,
                                          int num_channels) {
  CM_EXPECTS(allocation.z.size() == problem.chunks.size());
  CM_EXPECTS(num_channels >= 0);
  std::vector<double> utility(static_cast<std::size_t>(num_channels), 0.0);
  for (std::size_t i = 0; i < problem.chunks.size(); ++i) {
    const int channel = problem.chunks[i].ref.channel;
    CM_EXPECTS(channel >= 0 && channel < num_channels);
    double& sum = utility[static_cast<std::size_t>(channel)];
    for (std::size_t c = 0; c < problem.clusters.size(); ++c) {
      sum += allocation.z[i][c] * problem.clusters[c].utility;
    }
  }
  return utility;
}

InstancePlan pack_instances(const VmProblem& problem,
                            const VmAllocation& allocation) {
  CM_EXPECTS(allocation.z.size() == problem.chunks.size());
  const std::size_t v = problem.clusters.size();

  InstancePlan plan;
  plan.per_cluster_count.assign(v, 0);

  // Visit chunks in (channel, chunk) order so same-channel consecutive
  // chunks land in the same shared VM whenever fractions allow.
  std::vector<std::size_t> order(problem.chunks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const ChunkRef& ra = problem.chunks[a].ref;
    const ChunkRef& rb = problem.chunks[b].ref;
    if (ra.channel != rb.channel) return ra.channel < rb.channel;
    return ra.chunk < rb.chunk;
  });

  for (std::size_t c = 0; c < v; ++c) {
    // Sequential fill: each instance holds up to 1.0 VM of shares; a
    // chunk's share may straddle two instances (the paper already lets a
    // chunk be served by several VMs). Consecutive chunks of a channel are
    // adjacent in `order`, so they share VMs whenever fractions allow, and
    // the instance count is exactly ceil(Σ_i z_iv) — never above N_v.
    std::size_t open = SIZE_MAX;
    double open_left = 0.0;
    for (std::size_t idx : order) {
      double amount = allocation.z[idx][c];
      while (amount > kEps) {
        if (open == SIZE_MAX) {
          plan.instances.push_back(VmInstance{c, {}});
          ++plan.per_cluster_count[c];
          open = plan.instances.size() - 1;
          open_left = 1.0;
        }
        const double take = std::min(amount, open_left);
        plan.instances[open].slices.emplace_back(idx, take);
        amount -= take;
        open_left -= take;
        if (open_left <= kEps) open = SIZE_MAX;
      }
    }
  }

  for (std::size_t c = 0; c < v; ++c) {
    plan.cost_per_hour += static_cast<double>(plan.per_cluster_count[c]) *
                          problem.clusters[c].price_per_hour;
  }
  return plan;
}

}  // namespace cloudmedia::core
