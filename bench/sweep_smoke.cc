// Sweep-engine throughput tracker: runs a fixed 3x3 grid through
// SweepRunner and emits BENCH_sweep.json (runs/sec, events/sec) so the
// engine's perf trajectory is visible across PRs.
//
// The grid is deliberately frozen — 3 arrival rates x 3 channel counts on
// baseline_diurnal — so the numbers stay comparable; change it and the
// history resets. Peak RSS (getrusage) is reported alongside.
//
// A bad flag value exits 2 with `bench_sweep_smoke: <message>`.
//
// Flags: --hours=1 --warmup=0.25 --threads=<hardware> --seed=42
//        --out=BENCH_sweep.json

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>

#include "expr/flags.h"
#include "profile/profile.h"
#include "sweep/param_grid.h"
#include "sweep/sweep_runner.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/rss.h"

using namespace cloudmedia;

namespace {

struct Options {
  sweep::SweepSpec spec;
  std::string out;
};

Options parse_options(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"hours", "warmup", "seed", "threads", "out"});

  profile::Profile prof;
  prof.scenario = "baseline_diurnal";
  prof.grid.add_axis("arrival", {"0.4", "0.8", "1.1"});
  prof.grid.add_axis("channels", {"8", "12", "16"});
  prof.warmup_hours = 0.25;
  prof.measure_hours = 1.0;
  Options options;
  options.spec = sweep::SweepSpec::from_profile(prof);
  options.spec.apply_flags(flags);
  options.out = flags.get("out", std::string("BENCH_sweep.json"));
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_sweep_smoke: %s\n", e.what());
    return 2;
  }
  const sweep::SweepSpec& spec = options.spec;

  const unsigned threads =
      spec.threads ? spec.threads : sweep::default_threads();
  std::printf("sweep_smoke: 3x3 grid, %.2f+%.2f h per run, %u threads\n",
              spec.warmup_hours, spec.measure_hours, threads);

  const auto t0 = std::chrono::steady_clock::now();
  const sweep::SweepResult result = sweep::SweepRunner::run(spec);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t events = 0;
  for (const sweep::RunSummary& run : result.runs) events += run.sim_events;

  const double runs_per_sec = static_cast<double>(result.runs.size()) / wall;
  const double events_per_sec = static_cast<double>(events) / wall;
  const double rss_mb = util::peak_rss_mb();
  std::printf("  %zu runs in %.2f s  |  %.2f runs/s  |  %.0f events/s  |  "
              "peak rss %.1f MB\n",
              result.runs.size(), wall, runs_per_sec, events_per_sec, rss_mb);

  util::JsonValue bench = util::JsonValue::object();
  bench["bench"] = "sweep_smoke";
  bench["grid_runs"] = static_cast<double>(result.runs.size());
  bench["threads"] = static_cast<double>(threads);
  bench["warmup_hours"] = spec.warmup_hours;
  bench["measure_hours"] = spec.measure_hours;
  bench["wall_seconds"] = wall;
  bench["runs_per_sec"] = runs_per_sec;
  bench["events_total"] = static_cast<double>(events);
  bench["events_per_sec"] = events_per_sec;
  bench["peak_rss_mb"] = rss_mb;
  const std::string& out = options.out;
  const std::size_t slash = out.find_last_of('/');
  if (slash != std::string::npos) util::ensure_directory(out.substr(0, slash));
  util::write_json_file(out, bench);
  std::printf("[json] %s\n", out.c_str());
  return 0;
}
