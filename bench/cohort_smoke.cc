// Cohort-engine scale gate: one live_event_cliff day calibrated to a
// target peak concurrent population (10M by default — two orders beyond
// what the discrete engine can touch), run on the cohort core, emitting
// BENCH_cohort.json (viewers-simulated/s, realized peak, peak RSS) so the
// ROADMAP's scaling claim is measured, not asserted. It also reports, and
// does not gate, the mean quality and late-download share the day was
// served at: a fast day on a saturated cloud shows as low quality there.
//
// Work gates: cohort steps report nothing to the tracker themselves; each
// (channel, row)'s stepped mass reaches it as one row call per window tick
// or provisioning harvest, so tracker rows stay at or below channels · J ·
// (window ticks + harvests) however many transitions the day takes. The
// tracker's P̂ equals per-step recording up to rounding, so outputs match
// it to rounding. And every cohort caches its download-mass row, computed
// once at admission and once per transition: the 30 s rebalance and
// quality sampling derive none, so rows computed stay at or below cohorts
// admitted + transitions. Both counts are deterministic, so the gates hold
// on any runner and under the sanitizers.
//
// Calibration: estimated_peak_users() is linear in the aggregate arrival
// rate, so the rate that hits the target peak is target / peak-per-unit-
// rate. The realized concurrent peak lands below the closed-form estimate
// (the cliff is narrower than a session, so arrivals spread across it);
// --calibration scales the rate to compensate and the gate asserts the
// realized peak reaches the target.
//
// A bad flag value exits 2 with `bench_cohort_smoke: <message>`; a tripped
// gate aborts.
//
// Flags: --viewers=10000000 --hours=24 --warmup=0 --seed=42
//        --calibration=<factor> --out=BENCH_cohort.json

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "expr/flags.h"
#include "expr/runner.h"
#include "sweep/scenario_catalog.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/rss.h"

using namespace cloudmedia;

namespace {

struct Options {
  expr::ExperimentConfig cfg;
  double target = 10'000'000.0;
  std::string out;
};

Options parse_options(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"viewers", "hours", "warmup", "calibration", "seed",
                       "out"});
  Options options;
  options.target = flags.get("viewers", options.target);
  const double hours = flags.get("hours", 24.0);
  const double warmup = flags.get("warmup", 0.0);
  const double calibration = flags.get("calibration", 1.3);
  // Negated comparisons so that NaN is refused too.
  if (!(options.target > 0.0)) {
    expr::refuse_value("--viewers must be > 0 peak viewers", options.target);
  }
  if (!(hours > 0.0)) {
    expr::refuse_value("--hours must be > 0 simulated hours", hours);
  }
  if (!(warmup >= 0.0)) {
    expr::refuse_value("--warmup must be >= 0 hours", warmup);
  }
  if (!(calibration > 0.0)) {
    expr::refuse_value("--calibration must be > 0", calibration);
  }

  expr::ExperimentConfig& cfg = options.cfg;
  cfg = sweep::ScenarioCatalog::global().make_config("live_event_cliff");
  cfg.warmup_hours = warmup;
  cfg.measure_hours = hours;
  cfg.seed = flags.get_u64("seed", 42);
  cfg.engine = expr::Engine::kCohort;

  cfg.workload.total_arrival_rate = 1.0;
  const double peak_per_unit_rate = expr::estimated_peak_users(cfg);
  CM_ENSURES(peak_per_unit_rate > 0.0);
  cfg.workload.total_arrival_rate =
      calibration * options.target / peak_per_unit_rate;
  cfg.validate();
  options.out = flags.get("out", std::string("BENCH_cohort.json"));
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_cohort_smoke: %s\n", e.what());
    return 2;
  }
  const expr::ExperimentConfig& cfg = options.cfg;
  const double target = options.target;
  const double hours = cfg.measure_hours;

  std::printf(
      "cohort_smoke: live_event_cliff, %.0fh, target peak %.3g viewers "
      "(arrival rate %.1f/s)\n",
      hours, target, cfg.workload.total_arrival_rate);

  const auto t0 = std::chrono::steady_clock::now();
  const expr::ExperimentResult result = expr::ExperimentRunner::run(cfg);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const double peak = result.metrics.concurrent_users.max_value();
  const auto viewers = static_cast<double>(result.metrics.counters.arrivals);
  const double viewers_per_sec = viewers / wall;
  const double rss_mb = util::peak_rss_mb();
  std::printf(
      "  %.3g viewers (peak %.3g concurrent) in %.2f s  |  %.3g viewers/s  "
      "|  %llu events  |  peak rss %.1f MB\n",
      viewers, peak, wall, viewers_per_sec,
      static_cast<unsigned long long>(result.sim_events), rss_mb);

  const auto transitions = static_cast<double>(result.cohort.transitions);
  const auto tracker_rows = static_cast<double>(result.cohort.tracker_rows);
  const double flushes =
      std::floor(cfg.total_duration() / cfg.cohort_window) +
      std::floor(cfg.total_duration() / cfg.streaming.provisioning_interval);
  const double tracker_row_bound = cfg.workload.num_channels *
                                   cfg.vod.chunks_per_video * flushes;
  const auto cohorts = static_cast<double>(result.cohort.cohorts);
  const auto download_rows = static_cast<double>(result.cohort.download_rows);
  std::printf("  %.3g cohort transitions  |  %.4g tracker rows (bound %.4g)\n",
              transitions, tracker_rows, tracker_row_bound);
  std::printf("  %.3g cohorts admitted  |  %.3g download rows computed\n",
              cohorts, download_rows);
  std::printf("  served: mean quality %.4f  |  late share %.4f\n",
              result.mean_quality(), result.late_share());

  // The scaling gate: the realized concurrent peak must reach the target
  // population (re-tune --calibration if the workload shape changes).
  CM_ENSURES(peak >= target);
  CM_ENSURES(transitions > 0.0);
  CM_ENSURES(tracker_rows <= tracker_row_bound);
  CM_ENSURES(result.cohort.download_rows <=
             result.cohort.cohorts + result.cohort.transitions);

  util::JsonValue bench = util::JsonValue::object();
  bench["bench"] = "cohort_smoke";
  bench["engine"] = "cohort";
  bench["scenario"] = "live_event_cliff";
  bench["target_peak_viewers"] = target;
  bench["realized_peak_viewers"] = peak;
  bench["viewers_simulated"] = viewers;
  bench["hours"] = hours;
  bench["arrival_rate"] = cfg.workload.total_arrival_rate;
  bench["wall_seconds"] = wall;
  bench["viewers_per_sec"] = viewers_per_sec;
  bench["sim_events"] = static_cast<double>(result.sim_events);
  bench["transitions"] = transitions;
  bench["tracker_rows"] = tracker_rows;
  bench["tracker_row_bound"] = tracker_row_bound;
  bench["cohorts"] = cohorts;
  bench["download_rows"] = download_rows;
  bench["peak_rss_mb"] = rss_mb;
  bench["mean_quality"] = result.mean_quality();
  bench["late_share"] = result.late_share();
  const std::string& out = options.out;
  const std::size_t slash = out.find_last_of('/');
  if (slash != std::string::npos) util::ensure_directory(out.substr(0, slash));
  util::write_json_file(out, bench);
  std::printf("[json] %s\n", out.c_str());
  return 0;
}
