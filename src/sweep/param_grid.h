#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "expr/config.h"

namespace cloudmedia::sweep {

/// One named sweep axis: the parameter name and the values it takes, in
/// the order the caller listed them.
struct ParamAxis {
  std::string name;
  std::vector<std::string> values;
};

/// One cell of the cartesian product: (name, value) per axis, in axis
/// order.
struct GridPoint {
  std::vector<std::pair<std::string, std::string>> coords;

  /// "channels=4,mode=cs" — stable human/CSV label.
  [[nodiscard]] std::string label() const;
};

/// Apply one named parameter to an experiment config. Throws
/// util::PreconditionError on an unknown name, an unparsable number, or a
/// spelling a choice parameter does not list (the error names every
/// spelling it does). The registry is the single source of truth for what
/// `tool_sweep --grid`/`--set`, profiles and ParamGrid accept.
void apply_parameter(expr::ExperimentConfig& config, const std::string& name,
                     const std::string& value);

/// True when the parameter shapes the *workload* (arrival process, catalog,
/// viewing behaviour) rather than the serving system (mode, policy,
/// budgets). Only workload-shaping coordinates feed the per-run seed, so
/// runs that differ solely in system policy face byte-identical workloads —
/// the comparison discipline the figure benches rely on. Scenario ops
/// (ScenarioOp::workload_shaping) carry the same split for introspection,
/// but scenario names never feed the seed — only grid coordinates do.
[[nodiscard]] bool parameter_affects_workload(const std::string& name);

/// Registered parameter names in registry order, workload-shaping ones
/// first (for --list, error text and the fuzzer).
[[nodiscard]] std::vector<std::string> known_parameters();

/// A choice parameter's spellings joined by '|' ("cs|p2p"), or "" for a
/// numeric parameter. The choice parameters are mode, strategy, capacity,
/// p2p_cap, engine, forecaster and region. Throws on an unknown name.
[[nodiscard]] std::string parameter_spellings(const std::string& name);

/// A choice parameter's every accepted spelling, or a numeric parameter's
/// sample values — the values the fuzzer draws, in registry order. Throws
/// on an unknown name.
[[nodiscard]] const std::vector<std::string>& parameter_values(
    const std::string& name);

/// Cartesian product of named parameter axes. The first axis varies
/// slowest, the last fastest; point(i) decodes index i in that mixed-radix
/// order, so enumeration order is deterministic and independent of how the
/// sweep is scheduled across threads.
class ParamGrid {
 public:
  /// Adds an axis. Throws on an empty value list, a duplicate axis, or a
  /// name missing from the parameter registry.
  void add_axis(std::string name, std::vector<std::string> values);

  /// Parse "name=v1,v2,..." specs (one per --grid occurrence).
  [[nodiscard]] static ParamGrid parse(const std::vector<std::string>& specs);

  [[nodiscard]] const std::vector<ParamAxis>& axes() const noexcept {
    return axes_;
  }
  /// Number of grid cells; 1 for the empty grid (a single unmodified run).
  [[nodiscard]] std::size_t num_points() const noexcept;
  [[nodiscard]] GridPoint point(std::size_t index) const;

  /// Hash of the workload-shaping coordinates of `point` (FNV-1a over
  /// "name=value" in axis order; system-side coordinates are skipped — see
  /// parameter_affects_workload).
  [[nodiscard]] static std::uint64_t workload_hash(const GridPoint& point);

 private:
  std::vector<ParamAxis> axes_;
};

}  // namespace cloudmedia::sweep
