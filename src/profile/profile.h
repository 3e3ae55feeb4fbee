#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sweep/param_grid.h"
#include "sweep/scenario_catalog.h"
#include "sweep/sweep_runner.h"
#include "util/json.h"

namespace cloudmedia::profile {

/// A complete, declarative description of one experiment/sweep — the JSON
/// experiment-profile schema. Everything that defines *what a sweep
/// computes* lives here: the scenario expression (including `@` timeline
/// ops), the grid axes, fixed parameter overrides, seed, horizon, and
/// shard slice. Execution knobs that cannot change the output
/// bytes (threads, keep_results, customize, sink) deliberately stay out —
/// they belong to SweepSpec, and `tool_sweep --dump-profile` proves the
/// profile side round-trips losslessly: JSON -> Profile ->
/// SweepSpec::from_profile -> Profile::from_spec -> identical JSON.
///
/// The three historical SweepSpec construction paths (golden presets in
/// C++, bench hand-builds, CLI flags) all collapse onto this type: the 20
/// golden presets are committed profiles/*.json embedded at build time,
/// `tool_sweep` builds its spec from a Profile in every mode, the figure
/// benches start from a preset's profile and override declarative fields,
/// and `tool_fuzz` composes random Profiles and checks invariants.
///
/// JSON schema (all keys optional; unknown keys are rejected with a
/// teaching error naming the key and listing the valid ones):
///
///   {
///     "name": "fig04_provisioning",        // preset identity (goldens)
///     "description": "what it guards",
///     "scenario": "regional_outage@45m+recovery@90m",
///     "seed": "42",                         // decimal string or integer
///     "warmup_hours": 0.25,                 // finite, >= 0
///     "measure_hours": 2.75,                // finite, > 0
///     "grid": [                             // axes, registry-validated
///       {"name": "mode", "values": ["cs", "p2p"]}
///     ],
///     "overrides": {"engine": "auto"},      // fixed parameters, applied
///                                           // after the scenario and
///                                           // before the grid point
///     "shard": "0/2"                        // k/N slice of the grid
///   }
///
/// Values inside "grid" and "overrides" may be JSON strings or numbers;
/// numbers canonicalize through util::format_number. to_json() emits the
/// canonical form: keys in the order above, seed as a decimal string, and
/// default-valued optional keys omitted — which is what makes the
/// committed profiles byte-stable under load/dump round trips.
struct Profile {
  std::string name;         ///< optional; required for golden presets
  std::string description;  ///< optional; what the profile is for
  std::string scenario = "baseline_diurnal";
  std::uint64_t seed = 42;
  double warmup_hours = 1.0;
  double measure_hours = 6.0;
  sweep::ParamGrid grid;  ///< empty = one unmodified run
  /// Fixed parameter assignments from the same applier registry as the
  /// grid ("engine", "strategy", "vm_budget", ...), applied to
  /// every cell after the scenario and before the cell's own coordinates
  /// (so a grid axis wins over an override of the same parameter). Kept
  /// in insertion order for byte-stable serialization.
  std::vector<std::pair<std::string, std::string>> overrides;
  sweep::ShardSpec shard;

  /// Parse and fully validate a profile document. Throws
  /// util::PreconditionError with a teaching message on an unknown key
  /// (naming it and listing the valid keys), a wrong type, an unparsable
  /// seed, a negative/non-finite horizon, a malformed scenario expression
  /// or `@` fire time, an unknown grid parameter or override, an invalid
  /// parameter value, or a bad shard ("k/N" with k < N).
  [[nodiscard]] static Profile from_json(
      const util::JsonValue& doc,
      const sweep::ScenarioCatalog& catalog = sweep::ScenarioCatalog::global());

  /// from_json() over a file; parse errors are rethrown naming the path.
  [[nodiscard]] static Profile load(
      const std::string& path,
      const sweep::ScenarioCatalog& catalog = sweep::ScenarioCatalog::global());

  /// Rebuild the declarative side of a spec (the inverse of
  /// SweepSpec::from_profile). name/description are not spec fields, so
  /// the caller threads them through; execution knobs are dropped.
  [[nodiscard]] static Profile from_spec(const sweep::SweepSpec& spec,
                                         std::string name = {},
                                         std::string description = {});

  /// Canonical JSON (see the schema comment). from_json(to_json()) is the
  /// identity, and dumping a loaded canonical file reproduces its bytes.
  [[nodiscard]] util::JsonValue to_json() const;

  /// Re-validate the semantic constraints (horizons, shard, scenario
  /// expression, grid/override values against the applier registry).
  /// from_json validates on entry; call this again after mutating fields
  /// in code, as the benches do. SweepSpec::from_profile always calls it.
  void validate(const sweep::ScenarioCatalog& catalog =
                    sweep::ScenarioCatalog::global()) const;
};

/// The valid top-level profile keys, in canonical order (for error text
/// and docs).
[[nodiscard]] const std::vector<std::string>& profile_keys();

}  // namespace cloudmedia::profile
