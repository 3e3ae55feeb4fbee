// Quickstart: the analytical core of CloudMedia on one video channel.
//
// Walks the Sec.-IV pipeline by hand: viewing behaviour -> Jackson traffic
// equations -> Erlang server sizing -> P2P supply -> cloud residual, then
// solves the two Sec.-V optimizations for this channel and prints the plan.
//
// Build: cmake --build build --target example_quickstart
// Run:   ./build/examples/example_quickstart

#include <cstdio>

#include "core/capacity.h"
#include "core/clusters.h"
#include "core/jackson.h"
#include "core/p2p.h"
#include "core/params.h"
#include "core/storage_rental.h"
#include "core/vm_allocation.h"
#include "util/units.h"
#include "workload/viewing.h"

using namespace cloudmedia;

int main() {
  // The paper's VoD model: r = 400 kbps, T0 = 5 min, J = 20 chunks,
  // R = 10 Mbps per VM.
  const core::VodParameters params;
  std::printf("CloudMedia quickstart\n");
  std::printf("  streaming rate r   : %.0f kbps\n",
              util::to_kbps(params.streaming_rate));
  std::printf("  chunk               : %.0f MB (%.0f s of playback)\n",
              util::to_megabytes(params.chunk_bytes()), params.chunk_duration);
  std::printf("  VM bandwidth R      : %.0f Mbps  (service rate mu = %.4f /s)\n",
              util::to_mbps(params.vm_bandwidth), params.service_rate());

  // Viewing behaviour -> the chunk transfer matrix P (Sec. III-B).
  workload::ViewingBehavior behavior;  // alpha=0.6, jump=0.28, leave=0.12
  const util::Matrix transfer = behavior.transfer_matrix(params.chunks_per_video);
  const std::vector<double> entry =
      behavior.entry_distribution(params.chunks_per_video);

  // A channel receiving 0.2 users/s (~7 chunks/session -> ~420 concurrent).
  const double external_rate = 0.2;
  const std::vector<double> lambdas =
      core::solve_traffic_equations(transfer, entry, external_rate);

  std::printf("\nPer-chunk arrival rates (traffic equations, Eqn. 1):\n  ");
  for (double l : lambdas) std::printf("%.3f ", l);
  std::printf("\n");

  // Client-server capacity (Sec. IV-B), paper-literal per-chunk sizing.
  core::CapacityPlanner literal(params, core::CapacityModel::kPerChunkLiteral);
  const core::ChannelCapacityPlan cs = literal.plan(lambdas);
  std::printf("\nClient-server demand (per-chunk M/M/m, E[sojourn] <= T0):\n");
  std::printf("  total servers m = %d, total bandwidth = %.1f Mbps\n",
              cs.total_servers, util::to_mbps(cs.total_bandwidth));

  // Channel-pooled refinement (what the experiments use; README
  // "Modelling choices").
  core::CapacityPlanner pooled(params, core::CapacityModel::kChannelPooled);
  const core::ChannelCapacityPlan cs_pooled = pooled.plan(lambdas);
  std::printf("  pooled sizing: M = %d VMs = %.1f Mbps\n",
              cs_pooled.total_servers, util::to_mbps(cs_pooled.total_bandwidth));

  // P2P mode: peers with mean uplink = r supply most of the demand. The
  // availability populations are the queue occupancies λ_i·T0 (Little).
  std::vector<double> population(lambdas.size());
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    population[i] = lambdas[i] * params.chunk_duration;
  }
  const core::P2pSupply supply = core::solve_p2p_supply(
      transfer, cs_pooled, population,
      /*peer_upload_mean=*/params.streaming_rate, params.streaming_rate);
  double gamma = 0.0, delta = 0.0;
  for (std::size_t i = 0; i < supply.peer_supply.size(); ++i) {
    gamma += supply.peer_supply[i];
    delta += supply.cloud_residual[i];
  }
  std::printf("\nP2P mode (Prop. 1 + Eqn. 5):\n");
  std::printf("  peer supply Gamma   = %.1f Mbps\n", util::to_mbps(gamma));
  std::printf("  cloud residual Delta= %.1f Mbps  (%.0f%% saved vs C/S)\n",
              util::to_mbps(delta),
              100.0 * (1.0 - delta / cs_pooled.total_bandwidth));

  // Sec. V: place this channel's chunks and rent VMs, paper heuristics.
  std::vector<core::ChunkDemand> chunks;
  for (int i = 0; i < params.chunks_per_video; ++i) {
    chunks.push_back({{0, i}, supply.cloud_residual[static_cast<std::size_t>(i)]});
  }
  const core::StorageProblem storage_problem{
      core::paper_nfs_clusters(), chunks, params.chunk_bytes(), /*B_S=*/1.0};
  const core::StorageAssignment storage = core::solve_storage_greedy(storage_problem);
  std::printf("\nStorage rental (Eqn. 6 heuristic): utility %.1f, cost $%.6f/h%s\n",
              storage.total_utility, storage.cost_per_hour,
              storage.feasible ? "" : "  [INFEASIBLE]");

  const core::VmProblem vm_problem{core::paper_vm_clusters(), chunks,
                                   params.vm_bandwidth, /*B_M=*/100.0};
  const core::VmAllocation vm = core::solve_vm_greedy(vm_problem);
  const core::InstancePlan instances = core::pack_instances(vm_problem, vm);
  std::printf("VM configuration (Eqn. 7 heuristic): utility %.2f, "
              "%.2f VM-hours -> %zu instances, $%.2f/h%s\n",
              vm.total_utility, vm_problem.total_vm_demand(),
              instances.instances.size(), instances.cost_per_hour,
              vm.feasible ? "" : "  [INFEASIBLE]");
  for (std::size_t v = 0; v < vm_problem.clusters.size(); ++v) {
    std::printf("    %-9s: %5.2f VMs requested, %d instances booted\n",
                vm_problem.clusters[v].name.c_str(), vm.per_cluster_total[v],
                instances.per_cluster_count[v]);
  }
  return 0;
}
