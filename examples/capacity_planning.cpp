// Capacity planning dashboard: the provider-facing view of one controller
// cycle. Feeds a 20-channel Zipf library through the Sec.-IV analysis and
// both Sec.-V optimizers and prints what a VoD operator would see before
// signing the SLA: per-channel bandwidth requirements, peer offload, the
// VM shopping list per virtual cluster, chunk placement per NFS cluster,
// and the resulting hourly bill.
//
// Run: ./build/examples/example_capacity_planning [--rate=1.1] [--ratio=1.0]

#include <cstdio>
#include <memory>

#include "core/controller.h"
#include "expr/flags.h"
#include "util/units.h"
#include "workload/distributions.h"
#include "workload/viewing.h"

using namespace cloudmedia;

int main(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"rate", "ratio"});
  const double total_rate = flags.get("rate", 1.1);
  const double uplink_ratio = flags.get("ratio", 1.0);

  const core::VodParameters params;
  const workload::ViewingBehavior behavior;
  const std::vector<double> weights = workload::zipf_weights(20, 1.0);

  // One tracker report as the controller would see it in steady state.
  core::TrackerReport report;
  report.interval_length = 3600.0;
  for (int c = 0; c < 20; ++c) {
    core::ChannelObservation obs;
    obs.arrival_rate = total_rate * weights[static_cast<std::size_t>(c)];
    obs.transfer = behavior.transfer_matrix(params.chunks_per_video);
    obs.entry = behavior.entry_distribution(params.chunks_per_video);
    obs.occupancy.assign(static_cast<std::size_t>(params.chunks_per_video), 0.0);
    obs.served_cloud_bandwidth = obs.occupancy;
    obs.mean_peer_uplink = uplink_ratio * params.streaming_rate;
    report.channels.push_back(std::move(obs));
  }

  core::DemandEstimatorConfig est;
  est.mode = core::StreamingMode::kP2p;
  core::Controller controller(
      params,
      core::ControllerConfig{core::paper_vm_clusters(),
                             core::paper_nfs_clusters(), 100.0, 1.0},
      std::make_unique<core::ModelBasedPolicy>(params, est));
  const core::ProvisioningPlan plan = controller.plan(report);

  std::printf("CloudMedia capacity plan — 20 Zipf channels, %.2f users/s, "
              "peer uplink %.1fx r\n\n", total_rate, uplink_ratio);
  std::printf("%8s %12s %14s %14s %14s\n", "channel", "arrivals/h",
              "required Mbps", "peer Mbps", "cloud Mbps");
  for (std::size_t c = 0; c < 20; ++c) {
    const core::ChannelDemandEstimate& e = plan.demand.estimates[c];
    double gamma = 0.0;
    for (double g : e.peer_supply) gamma += g;
    std::printf("%8zu %12.0f %14.1f %14.1f %14.1f\n", c,
                report.channels[c].arrival_rate * 3600.0,
                util::to_mbps(e.capacity.total_bandwidth),
                util::to_mbps(gamma), util::to_mbps(e.total_cloud_demand));
  }

  std::printf("\nVM shopping list (Eqn. 7 heuristic):\n");
  for (std::size_t v = 0; v < plan.vm_problem.clusters.size(); ++v) {
    std::printf("  %-9s: %6.2f VM-shares -> %3d instances @ $%.3f/h\n",
                plan.vm_problem.clusters[v].name.c_str(),
                plan.vm.per_cluster_total[v], plan.instances.per_cluster_count[v],
                plan.vm_problem.clusters[v].price_per_hour);
  }

  std::printf("\nNFS placement (Eqn. 6 heuristic):\n");
  std::vector<int> per_cluster(plan.storage_problem.clusters.size(), 0);
  for (int f : plan.storage.cluster_of) {
    if (f >= 0) ++per_cluster[static_cast<std::size_t>(f)];
  }
  for (std::size_t f = 0; f < per_cluster.size(); ++f) {
    std::printf("  %-9s: %3d chunks (%.1f GB)\n",
                plan.storage_problem.clusters[f].name.c_str(), per_cluster[f],
                util::to_gigabytes(per_cluster[f] * params.chunk_bytes()));
  }

  std::printf("\nbill: VMs $%.2f/h (%s), storage $%.6f/h (%s); reserved "
              "%.0f Mbps of cloud egress.\n",
              plan.vm_cost_rate, plan.vm.feasible ? "feasible" : "INFEASIBLE",
              plan.storage_cost_rate,
              plan.storage.feasible ? "feasible" : "INFEASIBLE",
              util::to_mbps(plan.reserved_bandwidth));
  std::printf("Try --ratio=0.0 (pure client-server economics) or a larger "
              "--rate to watch the budget constraints bind.\n");
  return 0;
}
