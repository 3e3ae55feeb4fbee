// Diagnostic: step the full paper-scale simulation hour by hour and print
// wall time, population, pending events, processed events and the latest
// quality sample per simulated hour — used to localize super-linear
// slowdowns.

#include <chrono>
#include <cstdio>

#include "expr/config.h"
#include "expr/flags.h"
#include "expr/runner.h"

using namespace cloudmedia;

int main(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"hours", "p2p", "seed", "step", "from"});
  const double hours = flags.get("hours", 48.0);
  const bool p2p = flags.get("p2p", false);
  expr::ExperimentConfig cfg = expr::ExperimentConfig::make_default(
      p2p ? core::StreamingMode::kP2p : core::StreamingMode::kClientServer);
  cfg.seed = static_cast<std::uint64_t>(flags.get_ll("seed", 42));

  expr::Experiment experiment(cfg);
  const sim::Simulator& simulator = experiment.simulator();
  const vod::Deployment& system = experiment.deployment();

  const double step = flags.get("step", 3600.0);
  const double from = flags.get("from", 0.0) * 3600.0;
  if (from > 0.0) {
    std::printf("fast-forwarding to %.1f h...\n", from / 3600.0);
    std::fflush(stdout);
    experiment.run_until(from);
  }

  std::printf("%9s %10s %10s %12s %12s %10s\n", "time(h)", "wall(s)", "users",
              "events", "pending", "quality");
  std::uint64_t prev_events = simulator.events_processed();
  for (double t = from + step; t <= hours * 3600.0 + 1e-9; t += step) {
    const auto t0 = std::chrono::steady_clock::now();
    experiment.run_until(t);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall =
        std::chrono::duration<double>(t1 - t0).count();
    const util::TimeSeries& quality = system.metrics().quality;
    std::printf("%9.3f %10.2f %10zu %12llu %12zu %10.3f\n", t / 3600.0, wall,
                system.current_users(),
                static_cast<unsigned long long>(simulator.events_processed() -
                                                prev_events),
                simulator.pending(),
                quality.empty() ? 1.0 : quality.value_at(quality.size() - 1));
    std::fflush(stdout);
    prev_events = simulator.events_processed();
  }
  return 0;
}
