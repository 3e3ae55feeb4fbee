// Discrete-engine work gate: every golden preset, every sweep cell under
// the cohort auto-threshold, and all CI fuzz profiles run the *discrete*
// core. This bench runs one flash_crowd day in P2P mode (the heaviest
// discrete path: per-peer walks, rarest-first rebalances, pool churn) at a
// population far above the golden presets', and emits BENCH_discrete.json
// (events per viewer, events/s, peers simulated, peak RSS, rebalance work,
// the planner's substitution passes, the hot peer record's size, the
// ownership bitmap's words per peer, and the mean quality and
// late-download share the day was served at).
//
// The gates are deterministic and hold on every build, sanitized ones
// included: simulator events per simulated viewer must stay at or below
// --max-events-per-viewer (default: this bench's exact figure at its
// default arguments, rounded up at the third decimal), the owner-list
// entries the rarest-first rebalance reads per tick must stay below the
// member×chunk bitmap cells a per-tick ownership rebuild would scan, and
// the planner's substitution passes over the day must stay at or below
// (1 + J) · (1 + (plans − 1) · C): one pass per system for the bootstrap
// plan, whose C channels share one P, and one per system and channel for
// each later plan. All four counts are exact for a seed. The hot peer
// record (vod::Peer) must fit one 64-byte cache line. Peak RSS must stay
// under --max-rss-mb (skipped on sanitizer builds, whose allocators
// inflate it). A bad flag value exits 2 with `bench_discrete_smoke:
// <message>`; a tripped gate aborts. Events/s and wall seconds are
// reported, not gated: wall-clock claims come from perfbench/, so a slower
// runner cannot make this gate flaky. Quality and the late share are
// reported, not gated.
//
// Flags: --rate=6.0 --hours=10 --warmup=0 --seed=42
//        --max-events-per-viewer=13.07 --max-rss-mb=2048
//        --out=BENCH_discrete.json

#include <chrono>
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
#include "vod/streaming_system.h"

using namespace cloudmedia;

namespace {

constexpr bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

struct Options {
  expr::ExperimentConfig cfg;
  double max_events_per_viewer = 13.07;
  double max_rss_mb = 2048.0;
  std::string out;
};

Options parse_options(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"rate", "hours", "warmup", "max-events-per-viewer",
                       "max-rss-mb", "seed", "out"});
  Options options;
  const double rate = flags.get("rate", 6.0);
  const double hours = flags.get("hours", 10.0);
  const double warmup = flags.get("warmup", 0.0);
  options.max_events_per_viewer =
      flags.get("max-events-per-viewer", options.max_events_per_viewer);
  options.max_rss_mb = flags.get("max-rss-mb", options.max_rss_mb);
  // Negated comparisons so that NaN is refused too.
  if (!(rate > 0.0)) {
    expr::refuse_value("--rate must be > 0 arrivals/s", rate);
  }
  if (!(hours > 0.0)) {
    expr::refuse_value("--hours must be > 0 simulated hours", hours);
  }
  if (!(warmup >= 0.0)) {
    expr::refuse_value("--warmup must be >= 0 hours", warmup);
  }
  if (!(options.max_events_per_viewer > 0.0)) {
    expr::refuse_value("--max-events-per-viewer must be > 0",
                       options.max_events_per_viewer);
  }
  if (!(options.max_rss_mb > 0.0)) {
    expr::refuse_value("--max-rss-mb must be > 0", options.max_rss_mb);
  }

  expr::ExperimentConfig& cfg = options.cfg;
  cfg = sweep::ScenarioCatalog::global().make_config(
      "flash_crowd", core::StreamingMode::kP2p);
  cfg.warmup_hours = warmup;
  cfg.measure_hours = hours;
  cfg.seed = flags.get_u64("seed", 42);
  cfg.engine = expr::Engine::kDiscrete;
  cfg.workload.total_arrival_rate = rate;
  cfg.validate();
  options.out = flags.get("out", std::string("BENCH_discrete.json"));
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_discrete_smoke: %s\n", e.what());
    return 2;
  }
  const expr::ExperimentConfig& cfg = options.cfg;
  const double hours = cfg.measure_hours;
  const double rate = cfg.workload.total_arrival_rate;
  const double max_events_per_viewer = options.max_events_per_viewer;
  const double max_rss_mb = options.max_rss_mb;

  std::printf(
      "discrete_smoke: flash_crowd p2p, %.0fh, arrival rate %.1f/s "
      "(~%.3g est. peak viewers)\n",
      hours, rate, expr::estimated_peak_users(cfg));

  const auto t0 = std::chrono::steady_clock::now();
  const expr::ExperimentResult result = expr::ExperimentRunner::run(cfg);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  CM_ENSURES(!result.used_cohort_engine);
  const std::size_t peer_record_bytes = sizeof(vod::Peer);
  const std::size_t owned_words =
      vod::StreamingSystem::owned_words(cfg.vod.chunks_per_video);

  const auto events = static_cast<double>(result.sim_events);
  const double events_per_sec = events / wall;
  const double rss_mb = util::peak_rss_mb();
  const auto viewers = static_cast<double>(result.metrics.counters.arrivals);
  CM_ENSURES(viewers > 0.0);
  const double events_per_viewer = events / viewers;
  const vod::RebalanceCounters& rebalance = result.rebalance;
  CM_ENSURES(rebalance.ticks > 0);
  const double ticks = static_cast<double>(rebalance.ticks);
  const double visits_per_tick = static_cast<double>(rebalance.visits) / ticks;
  const double cells_per_tick = static_cast<double>(rebalance.member_cells) / ticks;
  const auto passes = static_cast<double>(result.planner_passes);
  const auto systems = static_cast<double>(1 + cfg.vod.chunks_per_video);
  const auto later_plans = static_cast<double>(result.plans_submitted - 1);
  const double pass_bound =
      systems * (1.0 + later_plans * cfg.workload.num_channels);
  CM_ENSURES(passes > 0.0);
  std::printf(
      "  %.3g events in %.2f s  |  %.3g events/s  |  %.3g viewers  |  "
      "peak rss %.1f MB\n",
      events, wall, events_per_sec, viewers, rss_mb);
  std::printf("  served: mean quality %.4f  |  late share %.4f\n",
              result.mean_quality(), result.late_share());
  std::printf("  gate: %.4f events/viewer <= %.4f, rss <= %.0f MB\n",
              events_per_viewer, max_events_per_viewer, max_rss_mb);
  std::printf("  peer record: %zu bytes (<= 64), %zu ownership word(s) "
              "per peer\n",
              peer_record_bytes, owned_words);
  std::printf("  rebalance: %.0f ticks, %.4g owner-list visits/tick < %.4g "
              "member x chunk cells/tick (%.2fx fewer)\n",
              ticks, visits_per_tick, cells_per_tick,
              cells_per_tick / visits_per_tick);
  std::printf("  planner: %.0f substitution passes <= %.0f over %ld plans\n",
              passes, pass_bound, result.plans_submitted);
  CM_ENSURES(rebalance.visits < rebalance.member_cells);
  // A run of channels that stops sharing its factors, or a batch split
  // back into single solves, multiplies the passes on any runner.
  CM_ENSURES(passes <= pass_bound);
  // Extra events per viewer (a redundant timer, a lost retime) fail CI on
  // any runner and any build.
  CM_ENSURES(events_per_viewer <= max_events_per_viewer);
  // A field added to the hot record spills peer events onto a second line.
  CM_ENSURES(peer_record_bytes <= 64);

  if (sanitized_build()) {
    std::printf("  sanitizer build: RSS gate skipped\n");
  } else {
    CM_ENSURES(rss_mb <= max_rss_mb);
  }

  util::JsonValue bench = util::JsonValue::object();
  bench["bench"] = "discrete_smoke";
  bench["engine"] = "discrete";
  bench["scenario"] = "flash_crowd";
  bench["mode"] = "p2p";
  bench["hours"] = hours;
  bench["arrival_rate"] = rate;
  bench["viewers_simulated"] = viewers;
  bench["sim_events"] = events;
  bench["wall_seconds"] = wall;
  bench["events_per_viewer"] = events_per_viewer;
  bench["max_events_per_viewer"] = max_events_per_viewer;
  bench["events_per_sec"] = events_per_sec;
  bench["peak_rss_mb"] = rss_mb;
  bench["mean_quality"] = result.mean_quality();
  bench["late_share"] = result.late_share();
  bench["rebalance_ticks"] = ticks;
  bench["rebalance_visits_per_tick"] = visits_per_tick;
  bench["rebalance_member_cells_per_tick"] = cells_per_tick;
  bench["planner_substitution_passes"] = passes;
  bench["peer_record_bytes"] = static_cast<double>(peer_record_bytes);
  bench["owned_words"] = static_cast<double>(owned_words);
  bench["max_rss_mb"] = max_rss_mb;
  bench["rss_gate_enforced"] = !sanitized_build();
  const std::string& out = options.out;
  const std::size_t slash = out.find_last_of('/');
  if (slash != std::string::npos) util::ensure_directory(out.substr(0, slash));
  util::write_json_file(out, bench);
  std::printf("[json] %s\n", out.c_str());
  return 0;
}
