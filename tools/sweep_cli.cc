// tool_sweep — run a scenario expression across a parameter grid, in
// parallel, and emit machine-readable CSV + JSON summaries.
//
//   tool_sweep --scenario flash_crowd --grid channels=4,8 --grid mode=cs,p2p
//              --threads 8 --hours 6 --warmup 1 --seed 42 --out results/sweep
//
// Scenarios compose with '+': `--scenario flash_crowd+churn_heavy` applies
// flash_crowd's ops, then churn_heavy's, left to right (order matters where
// parts touch the same config field). A part may carry an `@time` fire-time
// suffix (`regional_outage@6h+recovery@18h`): its ops then fire mid-run at
// the first provisioning-interval boundary >= that simulated time instead
// of reshaping the config before t=0. The composite expression is recorded
// in canonical form in the CSV/JSON scenario column.
//
// Output is byte-identical for any --threads value: every run owns its own
// Simulator + StreamingSystem, and its seed depends only on the base seed
// and the workload-shaping grid coordinates.
//
// Flags: --scenario=baseline_diurnal (a name or a+b composite)
//        --grid name=v1,v2 (repeatable)
//        --set name=value (repeatable; pin a registry parameter for every
//                          cell — applied after the scenario, before the
//                          grid point, e.g. --set engine=cohort)
//        --threads=<hardware> --hours=6 --warmup=1 --seed=42
//        --shard=k/N (run only this process's slice of the grid)
//        --out=results/sweep (writes <out>.csv and <out>.json, plus the
//                             streamed <out>.jsonl / <out>.stream.csv;
//                             missing parent directories are created)
//        --profile=<file.json> (load a declarative experiment profile —
//                               see src/profile/profile.h for the schema;
//                               other flags apply on top: profile < flags)
//        --dump-profile (print the effective profile, schedule flags
//                        included, as canonical JSON and exit without
//                        running; --profile x --dump-profile round-trips
//                        a canonical file byte-identically, which CI
//                        checks for every golden preset)
//        --golden=<preset> (run a frozen golden preset; grid/scenario/seed/
//                           horizon come from its profiles/<name>.json,
//                           --threads still applies — output must not
//                           depend on it)
//        --list (print scenarios with their ops, grid parameters with
//                each choice parameter's spellings, golden presets and
//                exit)
//        --list-goldens (print one golden preset name per line, for scripts)
//
// Unknown flags are rejected with a did-you-mean suggestion (so --thread=4
// teaches instead of being ignored). Precedence, weakest to strongest:
// profile file < --scenario/--grid/--set < --seed/--warmup/--hours/
// --threads/--shard. A bad command line, or an unreadable
// --profile/--diff/--merge input, prints `tool_sweep: <message>` and exits
// 2; an exception inside a sweep's runs is an engine failure and aborts.
//
// Every figure and ablation of the paper's evaluation is a golden preset
// (fig04_provisioning ... ablation_prediction, see --list); CI and
// scripts/verify.sh --golden replay all of them on 1 thread and on all
// cores and diff against the goldens/ snapshots on every commit.
//
// Diff mode — compare two sweep JSON files (same grid + seed, different
// commits) and report per-cell metric deltas:
//
//   tool_sweep --diff a.json b.json [--tol=0] [--out=report.json]
//
// Exits 0 when identical within --tol, 1 when any cell differs (CI runs
// this against the checked-in goldens/ snapshots).
//
// Distributed sweeps — split one grid across processes/machines and
// stitch the outputs back together, byte-identically:
//
//   tool_sweep --golden=sweep_demo --shard=0/2 --out=a   # machine 1
//   tool_sweep --golden=sweep_demo --shard=1/2 --out=b   # machine 2
//   tool_sweep --merge merged a.json b.json              # anywhere
//
// --shard=k/N runs only the cells with global index ≡ k (mod N); the
// output JSON carries a shard header (k/N, total cells, spec hash).
// --merge validates that the inputs are the complete shard set of one
// sweep (same scenario, seed, grid, spec hash; every k exactly once) and
// writes <out>.csv/<out>.json byte-identical to the unsharded run. Every
// sweep additionally streams rows through the results store as they
// complete: <out>.jsonl + <out>.stream.csv appear in completion order
// while the run is still going (and survive an interrupted sweep).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "expr/flags.h"
#include "profile/profile.h"
#include "store/results_store.h"
#include "store/shard_merge.h"
#include "sweep/goldens.h"
#include "sweep/param_grid.h"
#include "sweep/scenario_catalog.h"
#include "sweep/sweep_diff.h"
#include "sweep/sweep_runner.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/json.h"

using namespace cloudmedia;

namespace {

void print_listing() {
  std::printf("scenarios (compose with '+', ops apply left to right,\n");
  std::printf("           parts take an optional @fire-time —\n");
  std::printf("           e.g. --scenario flash_crowd+churn_heavy,\n");
  std::printf("                --scenario regional_outage@6h+recovery@18h):\n");
  const sweep::ScenarioCatalog& catalog = sweep::ScenarioCatalog::global();
  for (const std::string& name : catalog.names()) {
    const sweep::Scenario& scenario = catalog.at(name);
    std::printf("  %-18s %s\n", name.c_str(), scenario.description.c_str());
    for (const sweep::ScenarioOp& op : scenario.ops) {
      std::string tag = op.workload_shaping ? "workload" : "system";
      if (op.fire_time > 0.0) {
        tag += " @" + sweep::format_fire_time(op.fire_time);
      }
      std::printf("    - %-28s [%s] %s\n", op.name.c_str(), tag.c_str(),
                  op.description.c_str());
    }
    if (scenario.ops.empty()) {
      std::printf("    (no ops: the identity — paper defaults)\n");
    }
  }
  std::printf("\ngrid parameters (--grid name=v1,v2,...; each value a "
              "number or one of the spellings shown):\n");
  for (const std::string& name : sweep::known_parameters()) {
    const std::string spellings = sweep::parameter_spellings(name);
    std::printf("  %-14s %s%s\n", name.c_str(),
                spellings.empty() ? "<number>" : spellings.c_str(),
                sweep::parameter_affects_workload(name)
                    ? "  (workload-shaping: feeds the per-run seed)"
                    : "");
  }
  std::printf("\ngolden presets (--golden name; snapshots in goldens/):\n");
  for (const sweep::GoldenPreset& preset : sweep::golden_presets()) {
    std::printf("  %-20s %s\n", preset.name.c_str(),
                preset.description.c_str());
  }
}

int run_diff(int argc, char** argv) {
  // Strip the --diff token so the two file paths parse as positionals.
  std::vector<const char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--diff") rest.push_back(argv[i]);
  }
  const expr::Flags flags(static_cast<int>(rest.size()), rest.data(),
                          /*allow_positionals=*/true);
  flags.require_known({"tol", "out"});
  if (flags.positionals().size() != 2) {
    std::fprintf(stderr,
                 "usage: tool_sweep --diff a.json b.json [--tol=0] "
                 "[--out=report.json]\n");
    return 2;
  }
  const double tolerance = flags.get("tol", 0.0);
  const sweep::SweepDiff diff = sweep::diff_sweep_files(
      flags.positionals()[0], flags.positionals()[1], tolerance);
  std::fputs(diff.report().c_str(), stdout);
  if (flags.has("out")) {
    const std::string out = flags.get("out", std::string());
    const std::size_t slash = out.find_last_of('/');
    if (slash != std::string::npos) {
      util::ensure_directory(out.substr(0, slash));
    }
    util::write_json_file(out, diff.to_json());
    std::printf("[json] %s\n", out.c_str());
  }
  return diff.identical() ? 0 : 1;
}

int run_merge(int argc, char** argv) {
  // Strip the --merge token so the output stem and the shard files parse
  // as positionals.
  std::vector<const char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--merge") rest.push_back(argv[i]);
  }
  const expr::Flags flags(static_cast<int>(rest.size()), rest.data(),
                          /*allow_positionals=*/true);
  flags.require_known({});
  if (flags.positionals().size() < 3) {
    std::fprintf(stderr,
                 "usage: tool_sweep --merge <out> shard0.json shard1.json "
                 "...\n       (one JSON per shard of a --shard=k/N split; "
                 "writes <out>.csv and <out>.json)\n");
    return 2;
  }
  std::string out = flags.positionals().front();
  // Accept `--merge merged.json ...` too: strip the extension so the pair
  // of outputs lands where the name says.
  if (out.size() > 5 && out.substr(out.size() - 5) == ".json") {
    out = out.substr(0, out.size() - 5);
  }
  const std::vector<std::string> inputs(flags.positionals().begin() + 1,
                                        flags.positionals().end());
  const sweep::SweepResult merged = store::merge_shard_files(inputs);
  merged.write(out);
  std::printf("merged %zu shards, %zu cells\n[csv]  %s.csv\n[json] %s.json\n",
              inputs.size(), merged.runs.size(), out.c_str(), out.c_str());
  return 0;
}

/// A sweep the command line asks for, read and checked before it runs.
struct SweepJob {
  sweep::SweepSpec spec;
  std::string out;
};

/// The sweep to run, or nullopt once a mode that runs none (--list,
/// --list-goldens, --dump-profile) is served.
std::optional<SweepJob> parse_sweep(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"list", "help", "list-goldens", "golden", "profile",
                       "dump-profile", "set", "scenario", "grid", "seed",
                       "threads", "hours", "warmup", "shard", "out"});
  if (flags.has("list") || flags.has("help")) {
    print_listing();
    return std::nullopt;
  }
  if (flags.has("list-goldens")) {
    for (const sweep::GoldenPreset& preset : sweep::golden_presets()) {
      std::printf("%s\n", preset.name.c_str());
    }
    return std::nullopt;
  }

  // Every mode goes through one declarative Profile: golden preset,
  // --profile file, or flag-built — then SweepSpec::from_profile is the
  // single spec constructor and --dump-profile can print any of them.
  profile::Profile prof;
  std::string default_out = "results/sweep";
  if (flags.has("golden")) {
    const sweep::GoldenPreset& preset =
        sweep::golden_preset(flags.get("golden", std::string()));
    prof = preset.profile;
    default_out = "results/" + preset.name;
    // Only the schedule-neutral knobs are tunable: the preset's profile
    // defines the snapshot. Rejecting the rest beats silently running
    // something other than what the flags claim. --shard is
    // schedule-neutral by construction (it picks which cells run here,
    // never what they compute), which is exactly what lets CI split a
    // golden preset across shards and cmp the merge against the
    // committed snapshot.
    for (const char* frozen :
         {"scenario", "grid", "set", "profile", "seed", "hours", "warmup"}) {
      if (flags.has(frozen)) {
        throw util::PreconditionError(
            std::string("--") + frozen +
            " conflicts with --golden: the preset's profile freezes it "
            "(only --threads, --shard, --out and --dump-profile apply)");
      }
    }
  } else {
    if (flags.has("profile")) {
      prof = profile::Profile::load(flags.get("profile", std::string()));
      if (!prof.name.empty()) default_out = "results/" + prof.name;
    }
    // Declarative flags fold INTO the profile (profile < flags), so
    // --dump-profile prints what would actually run: --scenario and
    // --grid replace their fields, --set pins registry parameters
    // (last occurrence of a name wins).
    if (flags.has("scenario")) {
      prof.scenario = flags.get("scenario", prof.scenario);
    }
    if (flags.has("grid")) {
      prof.grid = sweep::ParamGrid::parse(flags.get_all("grid"));
    }
    for (const std::string& assignment : flags.get_all("set")) {
      const std::size_t eq = assignment.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw util::PreconditionError(
            "--set takes name=value with a registry parameter name "
            "(e.g. --set engine=cohort; see --list), got '" + assignment +
            "'");
      }
      const std::string name = assignment.substr(0, eq);
      const std::string value = assignment.substr(eq + 1);
      bool replaced = false;
      for (auto& [existing, existing_value] : prof.overrides) {
        if (existing == name) {
          existing_value = value;
          replaced = true;
          break;
        }
      }
      if (!replaced) prof.overrides.emplace_back(name, value);
    }
  }

  // Schedule flags override the profile (profile < flags). Under --golden
  // the frozen ones were refused above, so only --threads and --shard
  // reach the spec.
  sweep::SweepSpec spec = sweep::SweepSpec::from_profile(prof);
  spec.apply_flags(flags);

  if (flags.has("dump-profile")) {
    // Canonical round trip, deliberately THROUGH the spec: JSON ->
    // Profile -> SweepSpec -> Profile -> JSON, so the dump shows what
    // would actually run. cmp'ing the output against a committed
    // profiles/<name>.json proves the spec layer loses nothing.
    const profile::Profile round =
        profile::Profile::from_spec(spec, prof.name, prof.description);
    std::fputs((round.to_json().dump(2) + "\n").c_str(), stdout);
    return std::nullopt;
  }

  if (!spec.shard.whole()) {
    default_out += "_shard" + std::to_string(spec.shard.index) + "of" +
                   std::to_string(spec.shard.count);
  }
  if (flags.has("golden")) {
    std::printf("golden %s: %s\n", prof.name.c_str(),
                prof.description.c_str());
  }
  return SweepJob{std::move(spec), flags.get("out", default_out)};
}

int run_sweep(const SweepJob& job) {
  const sweep::SweepSpec& spec = job.spec;
  const std::string& out = job.out;
  const unsigned threads =
      spec.threads ? spec.threads : sweep::default_threads();

  const std::size_t owned_cells =
      sweep::SweepRunner::shard_cells(spec.grid.num_points(), spec.shard)
          .size();
  std::printf("sweep: scenario=%s grid=%zu runs threads=%u horizon=%.2f+%.2f h "
              "seed=%llu shard=%s (%zu cells here)\n",
              spec.scenario.c_str(), spec.grid.num_points(), threads,
              spec.warmup_hours, spec.measure_hours,
              static_cast<unsigned long long>(spec.base_seed),
              spec.shard.label().c_str(), owned_cells);

  // Stream rows through the results store as they complete: the sweep
  // never holds the whole result resident, and <out>.jsonl survives an
  // interrupted run. finalize() reassembles the deterministic grid-order
  // result the CSV/JSON outputs (and the golden gate) expect.
  store::ResultsStore results_store({.base = out}, spec);
  sweep::SweepSpec streaming = spec;
  streaming.sink = results_store.sink();
  const auto t0 = std::chrono::steady_clock::now();
  (void)sweep::SweepRunner::run(streaming);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const sweep::SweepResult result = results_store.finalize();

  std::printf("\n%-32s %12s %8s %9s %9s %9s %8s\n", "point", "seed", "quality",
              "reserved", "used", "peer", "$/h");
  for (const sweep::RunSummary& run : result.runs) {
    const std::string label =
        run.point.coords.empty() ? "(single run)" : run.point.label();
    std::printf("%-32s %12llu %8.3f %9.1f %9.1f %9.1f %8.2f\n", label.c_str(),
                static_cast<unsigned long long>(run.seed), run.mean_quality,
                run.mean_reserved_mbps, run.mean_used_cloud_mbps,
                run.mean_used_peer_mbps, run.cost_per_hour);
  }

  // Aggregate engine throughput across every cell of the sweep — the
  // sibling of bench_discrete_smoke's single-run figure, measured on
  // whatever grid the user actually ran.
  std::uint64_t total_events = 0;
  for (const sweep::RunSummary& run : result.runs) {
    total_events += run.sim_events;
  }
  std::printf("\n%zu runs, %llu sim events in %.2f s wall (%.3g events/s "
              "aggregate, %u threads)\n",
              result.runs.size(),
              static_cast<unsigned long long>(total_events), wall,
              wall > 0.0 ? static_cast<double>(total_events) / wall : 0.0,
              threads);

  result.write(out);
  std::printf("\n[csv]    %s.csv\n[json]   %s.json\n[jsonl]  %s (streamed)\n",
              out.c_str(), out.c_str(), results_store.jsonl_path().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<SweepJob> job;
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--diff") return run_diff(argc, argv);
      if (std::string_view(argv[i]) == "--merge") return run_merge(argc, argv);
    }
    job = parse_sweep(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tool_sweep: %s\n", e.what());
    return 2;
  }
  return job ? run_sweep(*job) : 0;
}
