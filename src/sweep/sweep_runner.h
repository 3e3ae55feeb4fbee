#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "expr/flags.h"
#include "sweep/param_grid.h"
#include "sweep/run_summary.h"
#include "sweep/scenario_catalog.h"

namespace cloudmedia::profile {
struct Profile;  // src/profile/profile.h — the declarative JSON schema
}  // namespace cloudmedia::profile

namespace cloudmedia::sweep {

/// A deterministic `k/N` slice of the flattened grid: shard k owns every
/// cell whose global index i satisfies `i % count == index` (interleaved,
/// so neighbouring — similarly expensive — cells spread across shards). The
/// N shards are disjoint and covering for every grid size, including
/// N > cells (trailing shards are then empty but still valid). Because
/// per-run seeds depend only on (base_seed, workload coordinates), a
/// sharded run replays exactly the cells the unsharded run would, and
/// `tool_sweep --merge` can stitch shard outputs back into a result
/// byte-identical to the single-process run.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// True for the default 1-shard spec covering the whole grid.
  [[nodiscard]] bool whole() const noexcept { return count == 1; }

  /// Parse "k/N" with 0 <= k < N (e.g. "0/2", "3/4"). Throws
  /// util::PreconditionError teaching the syntax on anything else.
  [[nodiscard]] static ShardSpec parse(const std::string& text);

  /// "k/N" — the canonical form parse() accepts.
  [[nodiscard]] std::string label() const;
};

/// Everything that defines one sweep: the scenario expression, the grid,
/// the seed, and the schedule. Results are bitwise-identical for any
/// `threads` value because each run owns a private Simulator +
/// StreamingSystem and a seed derived only from (base_seed, workload
/// coordinates).
struct SweepSpec {
  /// A scenario name or composite expression ("flash_crowd+churn_heavy");
  /// resolved against the catalog up front, ops applied left to right.
  /// The expression is carried verbatim into RunSummary rows and the
  /// CSV/JSON scenario headers, so archived sweeps record their workload
  /// provenance.
  std::string scenario = "baseline_diurnal";
  ParamGrid grid;               ///< empty grid = one unmodified run
  std::uint64_t base_seed = 42;
  unsigned threads = 1;         ///< 0 = default_threads()
  double warmup_hours = 1.0;
  double measure_hours = 6.0;
  /// Retain each run's full ExperimentResult (series data) in
  /// SweepResult::results. Off by default: summaries are cheap, series for
  /// a big grid are not.
  bool keep_results = false;
  /// Which slice of the grid this process runs (default: all of it). The
  /// slice is schedule-neutral: it changes which cells run here, never
  /// what any cell computes, so shard outputs merge byte-identically.
  ShardSpec shard;
  /// Fixed parameter assignments from the applier registry (the same one
  /// --grid axes use), applied to every cell after the scenario and before
  /// the cell's grid coordinates — so an axis beats an override of the
  /// same parameter. This is how a profile pins engine knobs or budgets
  /// without adding a one-value axis. Overrides are spec-wide constants:
  /// like the scenario they never feed per-run seeds, but they do enter
  /// spec_hash() (they change what the sweep computes).
  std::vector<std::pair<std::string, std::string>> overrides;
  /// Extra config tweak applied after the scenario and overrides, before
  /// the grid point (benches use this for knobs that are not grid axes).
  /// Code-only: a profile cannot express it, so --dump-profile drops it.
  std::function<void(expr::ExperimentConfig&)> customize;
  /// Streaming sink: when set, every completed row is handed off (with its
  /// global cell index) the moment its run finishes instead of
  /// accumulating in SweepResult::runs, so a million-cell sweep never
  /// holds all rows resident — see store::ResultsStore. Called
  /// concurrently from worker threads; must be thread-safe. Mutually
  /// exclusive with keep_results (series cannot stream).
  std::function<void(std::size_t cell, RunSummary row)> sink;

  /// THE construction entry point: build a spec from a declarative
  /// profile (golden presets, tool_sweep in every mode, the figure
  /// benches, and tool_fuzz all come through here). Validates the profile
  /// (teaching errors) and copies its declarative fields; execution knobs
  /// come back at their defaults (threads = 0 — hardware) for the caller
  /// or apply_flags to set. profile::Profile::from_spec is the inverse.
  [[nodiscard]] static SweepSpec from_profile(const profile::Profile& p);

  /// Read the shared schedule flags — --seed, --threads, --warmup,
  /// --hours, --shard — with the spec's current values as defaults. The
  /// one place the string-to-spec conversion (and its validation:
  /// --threads must be in [0, 1024], 0 meaning "hardware"; --shard must be
  /// k/N) lives for every sweep binary. A binary that reads every cell
  /// (bench_paper_figures) leaves --shard out of its Flags::require_known
  /// list, so the flag is rejected there.
  void apply_flags(const expr::Flags& flags);

  /// Hash of what the sweep *computes*: scenario expression, base seed,
  /// horizon, and the full grid (axis names + values, in order).
  /// Schedule-neutral knobs (threads, shard, keep_results) are excluded,
  /// so every shard of one logical sweep shares the hash — the header
  /// `tool_sweep --merge` uses to refuse mixing shards of different
  /// sweeps. 16 lowercase hex digits (FNV-1a 64).
  [[nodiscard]] std::string spec_hash() const;
};

/// Hardware concurrency with a floor of 1 (hardware_concurrency() may
/// legally return 0).
[[nodiscard]] unsigned default_threads() noexcept;

/// Fans a ParamGrid out across `threads` workers; one ExperimentRunner::run
/// per grid cell, results collected in grid order.
class SweepRunner {
 public:
  /// The per-run seed: base_seed mixed with the hash of the point's
  /// workload-shaping coordinates. Runs differing only in system policy
  /// (mode, strategy, budgets) share a seed and therefore replay the
  /// byte-identical user population.
  [[nodiscard]] static std::uint64_t run_seed(std::uint64_t base_seed,
                                              const GridPoint& point);

  /// The config grid cell `point` of `spec` runs, seed included — the one
  /// place it is assembled (run() and profile::check_profile_invariants
  /// both read it). Precedence, weakest to strongest: the client-server
  /// default < `scenario` (spec.scenario, resolved) < the spec's horizon <
  /// overrides < customize < the grid point; then config.seed =
  /// run_seed(spec.base_seed, point).
  [[nodiscard]] static expr::ExperimentConfig cell_config(
      const SweepSpec& spec, const Scenario& scenario, const GridPoint& point);

  /// The global cell indices shard `shard` owns out of `total` cells,
  /// ascending. Disjoint and covering across k = 0..N-1. Throws when
  /// shard.index >= shard.count.
  [[nodiscard]] static std::vector<std::size_t> shard_cells(
      std::size_t total, const ShardSpec& shard);

  /// Execute the sweep (or the spec's shard of it). Throws (first failure
  /// wins, in grid order) if any run throws. With spec.sink set,
  /// SweepResult::runs comes back empty — rows went to the sink.
  [[nodiscard]] static SweepResult run(
      const SweepSpec& spec,
      const ScenarioCatalog& catalog = ScenarioCatalog::global());
};

}  // namespace cloudmedia::sweep
