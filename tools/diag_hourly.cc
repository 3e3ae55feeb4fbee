// Diagnostic: step the full paper-scale simulation hour by hour and print
// wall time, population, pending events, processed events and the latest
// quality sample per simulated hour — used to localize super-linear
// slowdowns.

#include <chrono>
#include <cstdio>
#include <exception>

#include "expr/config.h"
#include "expr/flags.h"
#include "expr/runner.h"
#include "util/check.h"
#include "util/json.h"

using namespace cloudmedia;

namespace {

/// What the command line asks for, read and checked before anything runs.
struct Options {
  expr::ExperimentConfig config;
  double hours = 48.0;
  double step = 3600.0;
  double from = 0.0;  ///< seconds
};

Options parse_options(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"hours", "p2p", "seed", "step", "from"});
  Options options;
  options.hours = flags.get("hours", options.hours);
  const bool p2p = flags.get("p2p", false);
  options.config = expr::ExperimentConfig::make_default(
      p2p ? core::StreamingMode::kP2p : core::StreamingMode::kClientServer);
  options.config.seed = flags.get_u64("seed", 42);
  options.step = flags.get("step", options.step);
  const double from_hours = flags.get("from", 0.0);
  options.from = from_hours * 3600.0;
  // Negated comparisons so that NaN is refused too.
  if (!(options.step > 0.0)) {
    expr::refuse_value(
        "--step must be > 0 seconds between rows (3600 prints hourly)",
        options.step);
  }
  if (!(options.hours > 0.0)) {
    expr::refuse_value("--hours must be > 0 simulated hours", options.hours);
  }
  if (!(from_hours >= 0.0 && from_hours < options.hours)) {
    throw util::PreconditionError(
        "--from must be in [0, --hours) hours, the point the rows start at; "
        "got " + util::format_number(from_hours) +
        " with --hours=" + util::format_number(options.hours));
  }
  return options;
}

void step_hourly(const Options& options) {
  expr::Experiment experiment(options.config);
  const sim::Simulator& simulator = experiment.simulator();
  const vod::Deployment& system = experiment.deployment();

  const double hours = options.hours;
  const double step = options.step;
  const double from = options.from;
  if (from > 0.0) {
    std::printf("fast-forwarding to %.1f h...\n", from / 3600.0);
    std::fflush(stdout);
    experiment.run_until(from);
  }

  std::printf("%9s %10s %10s %12s %12s %10s\n", "time(h)", "wall(s)", "users",
              "events", "pending", "quality");
  std::uint64_t prev_events = simulator.events_processed();
  const double end = hours * 3600.0;
  for (double t = from; t < end;) {
    // The last step is clamped so the final row lands at the horizon.
    t = t + step >= end - 1e-9 ? end : t + step;
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
}

}  // namespace

// A bad command line prints `tool_diag_hourly: <message>` and exits 2; an
// exception inside the run is a failure of the simulation and aborts.
int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tool_diag_hourly: %s\n", e.what());
    return 2;
  }
  step_hourly(options);
  return 0;
}
