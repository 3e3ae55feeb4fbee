#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "expr/runner.h"
#include "sweep/param_grid.h"
#include "util/json.h"

namespace cloudmedia::sweep {

struct SweepSpec;  // sweep/sweep_runner.h

/// One run's SystemMetrics reduced to scalar summaries over the
/// measurement window. This is the machine-readable unit the sweep engine
/// emits per grid cell.
struct RunSummary {
  std::string scenario;
  GridPoint point;
  std::uint64_t seed = 0;

  double mean_quality = 0.0;
  double p95_quality = 0.0;   ///< 95th percentile of window quality samples
  double p05_quality = 0.0;   ///< low tail — the SLA-relevant end
  double mean_reserved_mbps = 0.0;  ///< billed cloud bandwidth
  double mean_used_cloud_mbps = 0.0;
  double mean_used_peer_mbps = 0.0;
  double cost_per_hour = 0.0;       ///< VM + storage $/h
  double covered_fraction = 0.0;    ///< reserved >= used sample fraction
  double peak_users = 0.0;
  double mean_users = 0.0;
  long arrivals = 0;
  std::uint64_t sim_events = 0;

  [[nodiscard]] static RunSummary from_result(std::string scenario,
                                              GridPoint point,
                                              std::uint64_t seed,
                                              const expr::ExperimentResult& r);

  /// The run as one JSON object — the entry schema of SweepResult::to_json
  /// "runs" and of the streaming store's JSONL rows: the global grid
  /// `cell` when given (shard documents and the JSONL rows carry it),
  /// params (in axis order), seed (decimal string: 64 bits do not survive
  /// a double round-trip), then every metric column. Counters ride as
  /// JSON numbers, exact below 2^53 — far beyond any single run's event
  /// count.
  [[nodiscard]] util::JsonValue to_json(
      std::optional<std::size_t> cell = std::nullopt) const;

  /// Inverse of to_json(): rebuild a row from an entry (a "cell" member
  /// is ignored — the caller reads it; the scenario comes from the
  /// document header). from_json(to_json()) round-trips byte-identically
  /// through format_number, which is what makes merged shard output
  /// byte-match the single-process run.
  [[nodiscard]] static RunSummary from_json(const util::JsonValue& entry,
                                            std::string scenario);
};

/// A grid's axes as JSON, `[{"name": ..., "values": [...]}, ...]` — the
/// "grid" member of sweep documents, JSONL headers and profiles.
[[nodiscard]] util::JsonValue axes_to_json(const std::vector<ParamAxis>& axes);

/// A whole sweep: grid metadata plus one RunSummary per cell, in grid
/// order (deterministic regardless of worker count). Full per-run
/// ExperimentResults ride along only when the spec asked to keep them.
struct SweepResult {
  std::string scenario;
  std::uint64_t base_seed = 0;
  std::vector<ParamAxis> axes;
  std::vector<RunSummary> runs;
  std::vector<expr::ExperimentResult> results;  ///< empty unless kept

  /// Shard provenance (SweepSpec::shard). An unsharded result keeps the
  /// 0/1 defaults and empty cell_indices, and serializes byte-identically
  /// to pre-shard builds — the committed goldens/ stay valid. A shard
  /// result (shard_count > 1) carries a "shard" JSON header plus a per-run
  /// global "cell" index, which is what `tool_sweep --merge` validates and
  /// stitches on.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t total_cells = 0;  ///< full-grid cell count (all shards)
  std::string spec_hash;        ///< SweepSpec::spec_hash() of the producer
  std::vector<std::size_t> cell_indices;  ///< global cell per run (sharded)

  /// The result `spec` produces, before any run: scenario, seed, axes,
  /// shard provenance, spec hash and, for a shard, its owned cells. The
  /// one place a spec becomes a result header (SweepRunner::run and the
  /// streaming store both start from it).
  [[nodiscard]] static SweepResult from_spec(const SweepSpec& spec);

  /// "scenario,<axis...>,seed,mean_quality,..." — axis columns in grid
  /// order.
  [[nodiscard]] std::vector<std::string> csv_header() const;
  [[nodiscard]] std::vector<std::string> csv_row(const RunSummary& run) const;
  /// The whole CSV as one string; deliberately in-memory so determinism
  /// tests can byte-compare without touching the filesystem.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] util::JsonValue to_json() const;

  /// Inverse of to_json() (shard header and per-run cell indices
  /// included). Retained series are not serialized, so results stays
  /// empty. Throws util::PreconditionError on a malformed document.
  [[nodiscard]] static SweepResult from_json(const util::JsonValue& doc);

  /// Write to_csv() / to_json() to files, creating missing parent
  /// directories; throws std::runtime_error naming the path when the
  /// target cannot be created or written.
  void write_csv(const std::string& path) const;
  void write_json(const std::string& path) const;
  /// Write <base>.csv and <base>.json.
  void write(const std::string& base) const;
};

}  // namespace cloudmedia::sweep
