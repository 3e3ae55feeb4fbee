// Offline provisioning from a workload trace.
//
// The paper's evaluation is driven by a synthetic PPLive-style trace
// (Sec. VI-A). This example treats such a trace as a first-class artifact:
//   1. record one day of the paper workload into a trace (or load one
//      from --in=<csv>),
//   2. save/reload it through the CSV codec to show the round trip,
//   3. run the *offline* pipeline: TraceAnalyzer turns the trace into the
//      hourly TrackerReports the controller consumes, and the controller
//      prices out every hour's plan — "what would CloudMedia have bought
//      on this trace" without running a simulation.
//
// Run: ./build/examples/example_trace_replay [--hours=24] [--seed=42]
//      [--in=trace.csv] [--out=trace.csv] [--p2p]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "core/controller.h"
#include "expr/config.h"
#include "expr/flags.h"
#include "trace/trace.h"
#include "workload/scenario.h"

using namespace cloudmedia;

int main(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"hours", "seed", "p2p", "in", "out"});
  const double hours = flags.get("hours", 24.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_ll("seed", 42));
  const bool p2p = flags.get("p2p", false);
  const std::string in = flags.get("in", std::string{});
  const std::string out = flags.get("out", std::string{});

  const expr::ExperimentConfig cfg = expr::ExperimentConfig::make_default(
      p2p ? core::StreamingMode::kP2p : core::StreamingMode::kClientServer);

  // 1. Obtain a trace.
  trace::Trace recorded;
  if (in.empty()) {
    const workload::Workload workload(cfg.workload, seed);
    recorded = trace::record_trace(workload, hours * 3600.0);
    std::printf("Recorded %zu sessions over %.0f h of the paper workload "
                "(seed %llu).\n",
                recorded.size(), hours,
                static_cast<unsigned long long>(seed));
  } else {
    recorded = trace::load_trace_csv(in);
    std::printf("Loaded %zu sessions from %s.\n", recorded.size(), in.c_str());
  }

  const auto per_channel = recorded.sessions_per_channel();
  std::printf("channels: %d, chunks/video: %d, mean walk %.1f chunks, "
              "busiest channel %zu sessions\n\n",
              recorded.num_channels, recorded.chunks_per_video,
              recorded.mean_session_chunks(),
              *std::max_element(per_channel.begin(), per_channel.end()));

  // 2. CSV round trip.
  if (!out.empty()) {
    trace::save_trace_csv(recorded, out);
    const trace::Trace reloaded = trace::load_trace_csv(out);
    std::printf("Saved to %s and reloaded: %zu sessions (round trip %s).\n\n",
                out.c_str(), reloaded.size(),
                reloaded.size() == recorded.size() ? "OK" : "MISMATCH");
  }

  // 3. Offline provisioning: hourly reports -> controller plans.
  const trace::TraceAnalyzer analyzer(recorded, cfg.vod);
  const double uplink_mean = cfg.workload.streaming_rate;  // Fig.-11 midpoint
  const auto reports = analyzer.reports(3600.0, uplink_mean);

  core::DemandEstimatorConfig estimator;
  estimator.mode = cfg.mode;
  core::ControllerConfig controller_config{cfg.vm_clusters, cfg.nfs_clusters,
                                           cfg.vm_budget_per_hour,
                                           cfg.storage_budget_per_hour};
  const core::Controller controller(
      cfg.vod, controller_config,
      std::make_unique<core::ModelBasedPolicy>(cfg.vod, estimator));

  std::printf("Offline hourly plans (%s mode):\n", p2p ? "P2P" : "C/S");
  std::printf("%5s %10s %12s %10s %12s\n", "hour", "arrivals/s",
              "reserved Mb", "VM $/h", "storage $/h");
  double total_cost = 0.0;
  for (std::size_t k = 0; k < reports.size(); ++k) {
    double rate = 0.0;
    for (const core::ChannelObservation& obs : reports[k].channels) {
      rate += obs.arrival_rate;
    }
    const core::ProvisioningPlan plan = controller.plan(reports[k]);
    total_cost += plan.vm_cost_rate;
    std::printf("%5zu %10.3f %12.1f %10.2f %12.4f\n", k, rate,
                plan.reserved_bandwidth / 1e6 * 8.0, plan.vm_cost_rate,
                plan.storage_cost_rate);
  }
  std::printf("\nTotal VM spend for the trace: $%.2f (%.2f $/h average)\n",
              total_cost, total_cost / static_cast<double>(reports.size()));
  std::printf(
      "\nThis is the provider's capacity-planning loop run from logs alone: "
      "record (or import) a trace, let TraceAnalyzer reconstruct the "
      "tracker statistics, and price every interval's plan before renting "
      "a single VM.\n");
  return 0;
}
