// Client-server vs. P2P CloudMedia on the same workload.
//
// Runs the full system twice — identical users, arrivals and seeks — once
// with the cloud serving everything and once with the mesh-pull P2P overlay
// in front of it, then compares cloud bandwidth, cost and streaming quality
// (the comparison behind the paper's Figs. 4, 5 and 10).
//
// Run: ./build/examples/example_cs_vs_p2p [--hours=12] [--seed=42]

#include <cstdio>

#include "expr/config.h"
#include "expr/flags.h"
#include "expr/runner.h"

using namespace cloudmedia;

int main(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"hours", "seed"});
  const double hours = flags.get("hours", 12.0);
  const auto seed = flags.get_u64("seed", 42);

  auto run_mode = [&](core::StreamingMode mode) {
    expr::ExperimentConfig cfg = expr::ExperimentConfig::make_default(mode);
    cfg.warmup_hours = 2.0;
    cfg.measure_hours = hours;
    cfg.seed = seed;
    return expr::ExperimentRunner::run(cfg);
  };

  std::printf("CloudMedia: client-server vs P2P over %.0f hours (seed %llu)\n",
              hours, static_cast<unsigned long long>(seed));
  const expr::ExperimentResult cs = run_mode(core::StreamingMode::kClientServer);
  const expr::ExperimentResult p2p = run_mode(core::StreamingMode::kP2p);

  std::printf("\n%-32s %14s %14s\n", "metric", "client-server", "P2P");
  const auto row = [](const char* name, double a, double b) {
    std::printf("%-32s %14.2f %14.2f\n", name, a, b);
  };
  row("avg concurrent users", cs.mean_concurrent_users(), p2p.mean_concurrent_users());
  row("reserved cloud bandwidth (Mbps)", cs.mean_reserved_mbps(), p2p.mean_reserved_mbps());
  row("used cloud bandwidth (Mbps)", cs.mean_used_cloud_mbps(), p2p.mean_used_cloud_mbps());
  row("peer-served bandwidth (Mbps)", cs.mean_used_peer_mbps(), p2p.mean_used_peer_mbps());
  row("VM rental cost ($/h)", cs.mean_vm_cost_rate(), p2p.mean_vm_cost_rate());
  row("streaming quality", cs.mean_quality(), p2p.mean_quality());
  row("reserved >= used (fraction)", cs.reserved_covers_used_fraction(),
      p2p.reserved_covers_used_fraction());

  if (p2p.mean_vm_cost_rate() > 0.0) {
    std::printf("\nP2P cuts cloud VM cost by %.1fx at a quality delta of %+.3f.\n",
                cs.mean_vm_cost_rate() / p2p.mean_vm_cost_rate(),
                p2p.mean_quality() - cs.mean_quality());
  }
  return 0;
}
