// Streaming results-store gate: runs a ~10k-cell grid through SweepRunner
// twice — once streaming rows through store::ResultsStore, once buffered
// with keep_results — and emits BENCH_store.json (cells/s and peak RSS for
// both) so the store's perf trajectory is visible across PRs.
//
// Two assertions make this a gate rather than a report:
//   1. Flatness: a small warm-up grid runs first; streaming the full grid
//      (16x more cells) must not grow peak RSS past kFlatFactor of the
//      warm-up's — the write-through store keeps no row after push()
//      returns, so the worker count, not the grid, sets the footprint.
//   2. Separation: the buffered keep_results replay must peak at least
//      kBufferedFactor above the streaming run — if it doesn't, either
//      keep_results stopped retaining or the streaming path started
//      buffering, and both are regressions worth failing on.
// Peak RSS (getrusage) is monotonic, so phase order is load-bearing:
// small streaming, full streaming, then buffered last.
//
// Under ASan/UBSan the asserts are skipped (shadow memory distorts RSS);
// the sanitize job still runs concurrent push() calls end to end, here
// and in smoke.results_store.
//
// A bad flag value exits 2 with `bench_store_smoke: <message>`; a tripped
// gate aborts.
//
// Flags: --cells=10000 --hours=0.25 --warmup=0 --threads=<hardware>
//        --seed=42 --out=BENCH_store.json --store-out=results/store_smoke

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "expr/flags.h"
#include "profile/profile.h"
#include "store/results_store.h"
#include "sweep/param_grid.h"
#include "sweep/sweep_runner.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rss.h"

using namespace cloudmedia;

namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

constexpr double kFlatFactor = 2.0;      // full/small streaming peak bound
constexpr double kBufferedFactor = 4.0;  // buffered/streaming peak floor

/// An `arrival x channels` grid of about `cells` cells. The arrival axis is
/// workload-shaping, so every cell simulates a distinct viewer population —
/// no cell is a cached replay of another.
sweep::ParamGrid make_grid(std::size_t cells) {
  const std::vector<std::string> channel_values = {"4", "8"};
  const std::size_t arrivals =
      std::max<std::size_t>(1, cells / channel_values.size());
  std::vector<std::string> arrival_values;
  arrival_values.reserve(arrivals);
  for (std::size_t i = 0; i < arrivals; ++i) {
    const double rate =
        0.3 + 0.4 * static_cast<double>(i) /
                  static_cast<double>(std::max<std::size_t>(1, arrivals - 1));
    arrival_values.push_back(util::format_number(rate));
  }
  sweep::ParamGrid grid;
  grid.add_axis("arrival", std::move(arrival_values));
  grid.add_axis("channels", channel_values);
  return grid;
}

struct PhaseResult {
  double wall_seconds = 0.0;
  double cells_per_sec = 0.0;
  double peak_rss_mb = 0.0;  // process high-water *after* the phase
};

struct Options {
  std::size_t cells = 10000;
  sweep::SweepSpec spec;
  std::string store_out;
  std::string out;
};

Options parse_options(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"cells", "hours", "warmup", "seed", "threads",
                       "store-out", "out"});
  Options options;
  const long long cells = flags.get_ll("cells", 10000);
  if (cells < 32) {
    expr::refuse_value("--cells must be >= 32", static_cast<double>(cells));
  }
  options.cells = static_cast<std::size_t>(cells);

  profile::Profile prof;
  prof.scenario = "baseline_diurnal";
  prof.warmup_hours = 0.0;
  prof.measure_hours = 0.25;
  options.spec = sweep::SweepSpec::from_profile(prof);
  options.spec.apply_flags(flags);
  // Densify the series so the buffered run's footprint reflects what
  // keep_results actually costs at scale (60 s sampling on a 15-minute
  // horizon would retain almost nothing).
  options.spec.customize = [](expr::ExperimentConfig& config) {
    config.streaming.sample_interval = 30.0;
  };
  options.store_out =
      flags.get("store-out", std::string("results/store_smoke"));
  options.out = flags.get("out", std::string("BENCH_store.json"));
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_store_smoke: %s\n", e.what());
    return 2;
  }
  const std::size_t cells = options.cells;
  const sweep::SweepSpec& spec = options.spec;
  const unsigned threads =
      spec.threads ? spec.threads : sweep::default_threads();
  const std::string& store_out = options.store_out;

  const auto run_streaming = [&](std::size_t n,
                                 const std::string& base) -> PhaseResult {
    sweep::SweepSpec streaming = spec;
    streaming.grid = make_grid(n);
    store::ResultsStore results_store({.base = base}, streaming);
    streaming.sink = results_store.sink();
    const auto t0 = std::chrono::steady_clock::now();
    (void)sweep::SweepRunner::run(streaming);
    results_store.finish();
    PhaseResult phase;
    phase.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // Measure before finalize(): while the sweep runs, at most one row per
    // worker is resident — finalize()'s grid-order reassembly is the one
    // step that holds all (scalar) rows, and it is excluded from the
    // flatness claim on purpose.
    phase.peak_rss_mb = util::peak_rss_mb();
    const sweep::SweepResult result = results_store.finalize();
    CM_ENSURES(result.runs.size() == streaming.grid.num_points());
    CM_ENSURES(results_store.rows_written() == result.runs.size());
    phase.cells_per_sec =
        static_cast<double>(result.runs.size()) / phase.wall_seconds;
    return phase;
  };

  // Phase 1 — small streaming grid: allocator/thread-pool warm-up and the
  // flatness baseline.
  const std::size_t small_cells = std::max<std::size_t>(16, cells / 16);
  const PhaseResult small = run_streaming(small_cells, store_out + "_small");
  std::printf("store_smoke: warm-up %zu cells | %.0f cells/s | peak rss %.1f MB\n",
              small_cells, small.cells_per_sec, small.peak_rss_mb);

  // Phase 2 — the full grid, streaming.
  const PhaseResult streaming = run_streaming(cells, store_out);
  std::printf("  streaming %zu cells: %.2f s | %.0f cells/s | peak rss %.1f MB\n",
              cells, streaming.wall_seconds, streaming.cells_per_sec,
              streaming.peak_rss_mb);

  // Phase 3 — the same grid, buffered with keep_results (the old
  // small-grid figure-bench mode), holding every run's series resident.
  sweep::SweepSpec buffered = spec;
  buffered.grid = make_grid(cells);
  buffered.keep_results = true;
  PhaseResult buffered_phase;
  std::size_t retained_samples = 0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    const sweep::SweepResult result = sweep::SweepRunner::run(buffered);
    buffered_phase.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    buffered_phase.cells_per_sec =
        static_cast<double>(result.runs.size()) / buffered_phase.wall_seconds;
    buffered_phase.peak_rss_mb = util::peak_rss_mb();  // result still live
    for (const expr::ExperimentResult& run : result.results) {
      retained_samples += run.metrics.total_samples();
    }
  }
  std::printf(
      "  buffered  %zu cells: %.2f s | %.0f cells/s | peak rss %.1f MB | "
      "%zu retained samples\n",
      cells, buffered_phase.wall_seconds, buffered_phase.cells_per_sec,
      retained_samples ? buffered_phase.peak_rss_mb : 0.0, retained_samples);

  const double flat_ratio = streaming.peak_rss_mb / small.peak_rss_mb;
  const double buffered_ratio =
      buffered_phase.peak_rss_mb / streaming.peak_rss_mb;
  std::printf("  peak rss: full/small streaming %.2fx (gate < %.1fx), "
              "buffered/streaming %.2fx (gate >= %.1fx)%s\n",
              flat_ratio, kFlatFactor, buffered_ratio, kBufferedFactor,
              kSanitized ? " [sanitized build: gates skipped]" : "");
  if (!kSanitized) {
    CM_ENSURES(retained_samples > 0);
    CM_ENSURES(flat_ratio < kFlatFactor);
    CM_ENSURES(buffered_ratio >= kBufferedFactor);
  }

  util::JsonValue bench = util::JsonValue::object();
  bench["bench"] = "store_smoke";
  bench["cells"] = static_cast<double>(cells);
  bench["threads"] = static_cast<double>(threads);
  bench["measure_hours"] = spec.measure_hours;
  bench["streaming_wall_seconds"] = streaming.wall_seconds;
  bench["streaming_cells_per_sec"] = streaming.cells_per_sec;
  bench["streaming_peak_rss_mb"] = streaming.peak_rss_mb;
  bench["buffered_wall_seconds"] = buffered_phase.wall_seconds;
  bench["buffered_cells_per_sec"] = buffered_phase.cells_per_sec;
  bench["buffered_peak_rss_mb"] = buffered_phase.peak_rss_mb;
  bench["buffered_retained_samples"] = static_cast<double>(retained_samples);
  bench["rss_flat_ratio"] = flat_ratio;
  bench["rss_buffered_over_streaming"] = buffered_ratio;
  bench["sanitized"] = kSanitized;
  util::write_json_file(options.out, bench);
  std::printf("[json] %s\n", options.out.c_str());
  return 0;
}
