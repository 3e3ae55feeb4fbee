// The repository benchmark. One process runs one workload for --seconds of
// closed-loop repetitions (each starts when the previous one ends, one
// thread) after a discarded warm-up, checks every repetition's output, and
// prints one JSON result as its last line of standard output:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--root <repo root>] [--out <scratch dir>]
//
// --trace 0 reports the end-to-end metrics: set-up through
// ExperimentRunner::run, and runs of the system ExperimentRunner::run builds,
// stepped (stepped.h) so that each splits into segments that recur in every
// repetition. --trace 1 reports the per-layer metrics instead, from a
// separate traced run that times each layer around its public calls.
// Workloads, metrics and the layer -> metric -> workload map: NOTES.md.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "expr/runner.h"
#include "profile/profile.h"
#include "stats.h"
#include "stepped.h"
#include "sweep/run_summary.h"
#include "util/json.h"
#include "util/rss.h"
#include "workloads.h"

namespace cm = cloudmedia;
using Clock = std::chrono::steady_clock;

namespace perfbench {
namespace {

/// Timed repetitions a run takes at least, however short --seconds is.
constexpr int kMinReps = 3;
/// setup_s: timed batches of set-up calls, kSetupBatchesPerRep before each
/// timed repetition. Each batch repeats the call for at least
/// kSetupBatchMs, so scheduler and allocator jitter stay small against the
/// interval.
constexpr int kSetupBatchesPerRep = 2;
constexpr double kSetupBatchMs = 100.0;
/// The traced profile.load_ms repeats the load this many times after a
/// discarded first.
constexpr int kProfileLoads = 9;
/// The cohort workload is calibrated to a realized peak of this many
/// concurrent viewers on every seed.
constexpr double kCohortPeakTarget = 1e7;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string out = ".bench_build/perfbench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;

  /// Count one operation; a non-empty `error` fails it.
  void record(const std::string& error, const std::string& what) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", what.c_str(), error.c_str());
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Runs `body` once as a discarded warm-up, then repeatedly while another
/// repetition of median length still fits in `seconds` (and at least
/// `min_reps` times). `body` returns the host milliseconds of its timed
/// part (its output checks stay outside it); those are returned.
std::vector<double> closed_loop(double seconds, int min_reps,
                                const std::function<double(bool warmup)>& body) {
  (void)body(true);
  std::vector<double> ms;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(ms.size()) < min_reps ||
         ms_since(start) + median(ms) <= seconds * 1e3) {
    ms.push_back(body(false));
  }
  std::fprintf(stderr, "perfbench: repetition ms:");
  for (double m : ms) std::fprintf(stderr, " %.1f", m);
  std::fprintf(stderr, "\n");
  return ms;
}

/// Times a set-up call in batches spread over the whole run. A discarded
/// warm-up batch of at least kSetupBatchMs fixes how many calls each later
/// batch makes. The result is the per-call time of the fastest batch: the
/// one the host disturbed least (see segment_minima).
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> call) : call_(std::move(call)) {
    const Clock::time_point warm = Clock::now();
    do {
      call_();
      ++calls_;
    } while (ms_since(warm) < kSetupBatchMs);
  }

  /// Times `batches` more batches.
  void sample(int batches) {
    for (int b = 0; b < batches; ++b) {
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < calls_; ++i) call_();
      per_call_ms_.push_back(ms_since(t0) / calls_);
    }
  }

  [[nodiscard]] double seconds() const {
    std::fprintf(stderr, "perfbench: setup batches of %d calls, per-call ms:", calls_);
    for (double m : per_call_ms_) std::fprintf(stderr, " %.3f", m);
    std::fprintf(stderr, "\n");
    return *std::min_element(per_call_ms_.begin(), per_call_ms_.end()) / 1e3;
  }

 private:
  std::function<void()> call_;
  int calls_ = 0;
  std::vector<double> per_call_ms_;
};

/// Pins the process to the last CPU it may run on, so that repetitions do
/// not migrate between cores and refill their caches. Threads started
/// later, such as a store's writer, share that CPU. Returns the CPU, or -1
/// when the affinity cannot be set (the run then goes on unpinned).
int pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

std::string summary_json(const cm::sweep::RunSummary& row) {
  return row.to_json().dump(-1);
}

cm::profile::Profile load_workload_profile(const Args& args) {
  return cm::profile::Profile::load(args.root + "/perfbench/workloads/" + args.workload +
                                    ".json");
}

/// Per-layer numbers of one traced repetition, in reporting order.
using LayerRow = std::vector<Metric>;

void add_layers(LayerRow& row, const std::vector<SteppedRun>& runs,
                const std::vector<ControllerReplay>& replays,
                const std::vector<double>& draw_ms) {
  double events = 0, arrivals = 0, pending = 0, ring = 0, run_ms = 0, estimate_ms = 0;
  double peak_users = 0, peak_cohorts = 0, peak_jobs = 0, late = 0, chunks = 0;
  double rejected = 0, submitted = 0, boots = 0, reports = 0;
  std::vector<double> steps;
  for (const SteppedRun& run : runs) {
    const cm::expr::ExperimentResult& r = run.result;
    events += static_cast<double>(r.sim_events);
    arrivals += static_cast<double>(r.metrics.counters.arrivals);
    pending = std::max(pending, static_cast<double>(run.layers.pending_peak));
    ring = std::max(ring, static_cast<double>(run.layers.ring_slots));
    run_ms += run.layers.run_ms;
    estimate_ms += run.layers.estimate_ms;
    steps.insert(steps.end(), run.layers.step_ms.begin(), run.layers.step_ms.end());
    peak_users = std::max(peak_users, r.metrics.concurrent_users.max_value());
    peak_cohorts = std::max(peak_cohorts, run.layers.peak_cohorts);
    peak_jobs = std::max(peak_jobs, run.layers.peak_pool_jobs);
    late += static_cast<double>(r.metrics.counters.late_downloads);
    chunks += static_cast<double>(r.metrics.counters.chunk_downloads);
    rejected += static_cast<double>(r.plans_rejected);
    submitted += static_cast<double>(r.plans_submitted);
    boots += static_cast<double>(r.vm_boots);
    reports += static_cast<double>(run.layers.reports.size());
  }
  std::vector<double> plan_ms;
  double storage_ms = 0, vm_ms = 0, plan_total = 0;
  for (const ControllerReplay& replay : replays) {
    plan_ms.insert(plan_ms.end(), replay.plan_ms.begin(), replay.plan_ms.end());
    storage_ms += replay.storage_ms;
    vm_ms += replay.vm_ms;
  }
  for (double ms : plan_ms) plan_total += ms;

  row.push_back({"sim.events", events, "count"});
  row.push_back({"sim.events_per_viewer", arrivals > 0 ? events / arrivals : 0.0,
                 "events/viewer"});
  row.push_back({"sim.pending_peak", pending, "count"});
  row.push_back({"sim.ring_slots", ring, "count"});
  row.push_back({"vod.step_ms_p50", rank_percentile(steps, 50.0), "ms"});
  row.push_back({"vod.step_ms_p90", rank_percentile(steps, 90.0), "ms"});
  row.push_back({"vod.system_ms", run_ms - estimate_ms, "ms"});
  row.push_back({"vod.peak_users", peak_users, "count"});
  row.push_back({"vod.peak_cohorts", peak_cohorts, "count"});
  row.push_back({"vod.peak_pool_jobs", peak_jobs, "count"});
  row.push_back({"vod.late_share", chunks > 0 ? late / chunks : 0.0, "ratio"});
  row.push_back({"core.plans", reports, "count"});
  row.push_back({"core.estimate_ms", estimate_ms, "ms"});
  row.push_back({"core.plan_ms_p50", median(plan_ms), "ms"});
  row.push_back({"core.storage_ms", storage_ms, "ms"});
  row.push_back({"core.vm_ms", vm_ms, "ms"});
  row.push_back({"core.share", run_ms > 0 ? plan_total / run_ms : 0.0, "ratio"});
  row.push_back({"cloud.reject_share", submitted > 0 ? rejected / submitted : 0.0, "ratio"});
  row.push_back({"cloud.vm_boots", boots, "count"});
  row.push_back({"workload.arrivals", arrivals, "count"});
  double draw_total = 0;
  for (double ms : draw_ms) draw_total += ms;
  row.push_back({"workload.draw_ms", draw_total, "ms"});
}

/// Median of each metric across repetitions (rows share names and order).
void add_medians(Report& report, const std::vector<LayerRow>& rows) {
  for (std::size_t i = 0; i < rows.front().size(); ++i) {
    std::vector<double> values;
    for (const LayerRow& row : rows) values.push_back(row[i].value);
    report.add(rows.front()[i].name, median(values), rows.front()[i].unit);
  }
}

void single_run(const Args& args, Report& report) {
  const cm::profile::Profile profile = load_workload_profile(args);
  const cm::expr::ExperimentConfig config = single_run_config(profile, args.seed);
  const bool cohort_workload = config.engine == cm::expr::Engine::kCohort;

  std::string first;
  double arrivals = 0.0;
  const auto run_and_check = [&](const cm::expr::ExperimentResult& r, const char* what,
                                  std::string error) {
    if (error.empty()) error = check_result(r);
    if (error.empty() && cohort_workload &&
        r.metrics.concurrent_users.max_value() < kCohortPeakTarget) {
      error = "realized peak below 1e7 viewers";
    }
    const std::string summary =
        summary_json(cm::sweep::RunSummary::from_result(profile.scenario, {}, config.seed, r));
    if (first.empty()) first = summary;
    if (error.empty() && summary != first) error = "summary differs from the first run";
    arrivals = static_cast<double>(r.metrics.counters.arrivals);
    report.record(error, what);
  };

  if (!args.trace) {
    cm::expr::ExperimentConfig minute = config;
    minute.warmup_hours = 0.0;
    minute.measure_hours = 1.0 / 60.0;
    SetupTimer setup([&] { (void)cm::expr::ExperimentRunner::run(minute); });
    // The warm-up is the workload's ExperimentRunner::run: the reference
    // every timed repetition must reproduce. The timed repetitions run the
    // same system stepped, so that each splits into segments: construction,
    // start(), the kTraceSteps steps, and the rest (result and teardown).
    cm::expr::ExperimentResult reference;
    Trace trace;
    std::vector<std::vector<double>> segments;
    const std::vector<double> ms = closed_loop(args.seconds, kMinReps, [&](bool warmup) {
      const Clock::time_point t0 = Clock::now();
      if (warmup) {
        reference = cm::expr::ExperimentRunner::run(config);
        const double run_ms = ms_since(t0);
        run_and_check(reference, "run", "");
        return run_ms;
      }
      setup.sample(kSetupBatchesPerRep);
      const Clock::time_point t1 = Clock::now();
      const SteppedRun run = run_stepped(config, trace, -1);
      const double run_ms = ms_since(t1);
      const SteppedLayers& layers = run.layers;
      std::vector<double> rep{layers.build_ms, layers.start_ms};
      rep.insert(rep.end(), layers.step_ms.begin(), layers.step_ms.end());
      rep.push_back(run_ms - layers.build_ms - layers.run_ms);
      segments.push_back(std::move(rep));
      run_and_check(run.result, "stepped run", fidelity_mismatch(run.result, reference));
      return run_ms;
    });
    const std::vector<double> minima = segment_minima(segments);
    const std::vector<double> steps(minima.begin() + 2, minima.end() - 1);
    report.add("viewers_per_s", arrivals / (sum(minima) / 1e3), "1/s");
    report.add("setup_s", setup.seconds(), "s");
    report.add("peak_rss_mb", cm::util::peak_rss_mb(), "MB");
    report.add("cell_ms_p50", rank_percentile(steps, 50.0), "ms");
    report.add("cell_ms_p80", rank_percentile(steps, 80.0), "ms");
    std::printf("%s: %zu timed runs of %.0f viewers, %.1f ms on a quiet host (median run "
                "%.1f ms); cell = one of %d steps, p80 leaves %zu beyond it\n",
                args.workload.c_str(), ms.size(), arrivals, sum(minima), median(ms),
                kTraceSteps, samples_beyond(steps.size(), 80.0));
    return;
  }

  // Traced: alternate an untraced ExperimentRunner::run (the fidelity
  // reference and the trace.overhead base) with a stepped, traced run, the
  // controller and arrival replays, and the cell's sweep delivery.
  Trace trace;
  std::vector<double> load_ms;
  for (int i = 0; i <= kProfileLoads; ++i) {
    const long span = trace.open("profile.load");
    (void)single_run_config(load_workload_profile(args), args.seed);
    const double ms = trace.close(span);
    if (i > 0) load_ms.push_back(ms);
  }
  cm::sweep::SweepSpec sweep_spec = cm::sweep::SweepSpec::from_profile(profile);
  sweep_spec.base_seed = args.seed;
  cm::expr::ExperimentResult reference;
  std::vector<double> untraced_rates, traced_rates;
  std::vector<LayerRow> rows;
  (void)closed_loop(args.seconds, 1, [&](bool warmup) {
    const Clock::time_point t0 = Clock::now();
    cm::expr::ExperimentResult untraced = cm::expr::ExperimentRunner::run(config);
    const double untraced_ms = ms_since(t0);
    run_and_check(untraced, "run", "");
    if (warmup) {
      reference = std::move(untraced);
      return untraced_ms;
    }
    untraced_rates.push_back(arrivals / (untraced_ms / 1e3));

    trace.begin_run();
    const long root = trace.open("run");
    std::vector<SteppedRun> stepped;
    const Clock::time_point t1 = Clock::now();
    stepped.push_back(run_stepped(config, trace, root));
    traced_rates.push_back(arrivals / (ms_since(t1) / 1e3));
    run_and_check(stepped.back().result, "stepped run vs ExperimentRunner::run",
                  fidelity_mismatch(stepped.back().result, reference));
    const std::vector<ControllerReplay> replays{
        replay_controller(config, stepped.back().layers.reports, trace, root)};
    const std::vector<double> draws{draw_arrivals(config, trace, root)};

    // The same cell through SweepRunner::run, delivered into a ResultsStore
    // as tool_sweep delivers it. Its row must equal the runner's.
    DeliveryTimes delivery;
    const std::vector<cm::sweep::RunSummary> delivered = deliver_sweep(
        sweep_spec, args.out + "/" + args.workload, delivery, trace, root);
    report.record(delivered.size() == 1 && summary_json(delivered.front()) == first
                      ? ""
                      : "row differs from ExperimentRunner::run",
                  "SweepRunner::run into a ResultsStore");
    trace.close(root);

    LayerRow row;
    add_layers(row, stepped, replays, draws);
    row.push_back({"profile.load_ms", median(load_ms), "ms"});
    row.push_back({"sweep.cells", static_cast<double>(delivered.size()), "count"});
    row.push_back({"sweep.events",
                   delivered.empty() ? 0.0 : static_cast<double>(delivered.front().sim_events),
                   "count"});
    row.push_back({"store.push_ms", delivery.push_ms, "ms"});
    row.push_back({"store.finish_ms", delivery.finish_ms, "ms"});
    row.push_back({"store.finalize_ms", delivery.finalize_ms, "ms"});
    row.push_back({"store.peak_buffered", static_cast<double>(delivery.peak_buffered), "count"});
    rows.push_back(std::move(row));
    return untraced_ms;
  });
  add_medians(report, rows);
  report.add("trace.overhead", median(traced_rates) / median(untraced_rates), "ratio");
  trace.write_jsonl(args.out + "/spans_" + args.workload + "_" + std::to_string(args.seed) +
                    ".jsonl");
}

// ---------------------------------------------------------------------- CLI

Args parse_args(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> values;
  for (int i = 1; i + 1 < argc; i += 2) values[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) throw std::runtime_error("flags come in --name value pairs");
  for (const auto& [flag, value] : values) {
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") throw std::runtime_error("--trace takes 0 or 1");
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (!(args.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return args;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::fprintf(stderr, "perfbench: pinned to CPU %d\n", pin_to_one_cpu());
  Report report;
  if (args.workload != "discrete_flash_p2p" && args.workload != "cohort_cliff_10m") {
    throw std::runtime_error("unknown workload '" + args.workload +
                             "' (discrete_flash_p2p | cohort_cliff_10m)");
  }
  single_run(args, report);

  cm::util::JsonValue metrics = cm::util::JsonValue::object();
  for (const Metric& m : report.metrics) {
    std::printf("  %-22s %-.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    cm::util::JsonValue entry = cm::util::JsonValue::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[m.name] = std::move(entry);
  }
  cm::util::JsonValue result = cm::util::JsonValue::object();
  result["correct"] = report.failed == 0;
  result["attempted"] = static_cast<double>(report.attempted);
  result["failed"] = static_cast<double>(report.failed);
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump(-1).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
