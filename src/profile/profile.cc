#include "profile/profile.h"

#include <cmath>
#include <stdexcept>

#include "expr/config.h"
#include "expr/runner.h"
#include "util/check.h"
#include "workload/scenario.h"

namespace cloudmedia::profile {

namespace {

const char* type_name(const util::JsonValue& value) {
  switch (value.type()) {
    case util::JsonValue::Type::kNull:
      return "null";
    case util::JsonValue::Type::kBool:
      return "a boolean";
    case util::JsonValue::Type::kNumber:
      return "a number";
    case util::JsonValue::Type::kString:
      return "a string";
    case util::JsonValue::Type::kArray:
      return "an array";
    case util::JsonValue::Type::kObject:
      return "an object";
  }
  return "an unknown value";
}

[[noreturn]] void fail_key(const std::string& key, const std::string& why) {
  throw util::PreconditionError("profile key '" + key + "': " + why);
}

[[noreturn]] void fail_unknown_key(const std::string& key) {
  std::string valid;
  for (const std::string& known : profile_keys()) {
    if (!valid.empty()) valid += ", ";
    valid += known;
  }
  throw util::PreconditionError("unknown profile key '" + key +
                                "' (valid keys: " + valid + ")");
}

double require_number(const std::string& key, const util::JsonValue& value) {
  if (!value.is_number()) {
    fail_key(key, std::string("expected a number, got ") + type_name(value));
  }
  return value.as_number();
}

std::string require_string(const std::string& key,
                           const util::JsonValue& value) {
  if (!value.is_string()) {
    fail_key(key, std::string("expected a string, got ") + type_name(value));
  }
  return value.as_string();
}

/// Grid/override values may be written as JSON strings or numbers; numbers
/// canonicalize through format_number so "8" and 8 mean the same axis
/// value (and the same per-run seed hash bytes).
std::string string_or_number(const std::string& key,
                             const util::JsonValue& value) {
  if (value.is_string()) return value.as_string();
  if (value.is_number()) return util::format_number(value.as_number());
  fail_key(key,
           std::string("expected a string or number, got ") + type_name(value));
}

std::uint64_t parse_seed(const util::JsonValue& value) {
  if (value.is_number()) {
    const double n = value.as_number();
    if (!(n >= 0.0) || n != std::floor(n) || n > 9007199254740992.0) {
      fail_key("seed",
               "a numeric seed must be a non-negative integer below 2^53 "
               "(larger seeds do not survive a double round-trip: write "
               "them as a decimal string, e.g. \"seed\": \"42\")");
    }
    return static_cast<std::uint64_t>(n);
  }
  const std::string text = require_string("seed", value);
  if (text.empty()) fail_key("seed", "expected a non-empty decimal string");
  for (const char c : text) {
    if (c < '0' || c > '9') {
      fail_key("seed", "'" + text + "' is not a decimal unsigned integer");
    }
  }
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    fail_key("seed", "'" + text + "' does not fit in 64 bits");
  }
}

sweep::ParamGrid parse_grid(const util::JsonValue& value) {
  if (!value.is_array()) {
    fail_key("grid", std::string("expected an array of "
                                 "{\"name\": ..., \"values\": [...]} axes, "
                                 "got ") +
                         type_name(value));
  }
  sweep::ParamGrid grid;
  for (const util::JsonValue& entry : value.items()) {
    if (!entry.is_object()) {
      fail_key("grid", std::string("each axis must be an object with "
                                   "\"name\" and \"values\", got ") +
                           type_name(entry));
    }
    std::string axis_name;
    std::vector<std::string> values;
    bool saw_name = false, saw_values = false;
    for (const auto& [key, member] : entry.members()) {
      if (key == "name") {
        if (saw_name) fail_key("grid", "axis repeats the \"name\" key");
        saw_name = true;
        axis_name = require_string("grid.name", member);
      } else if (key == "values") {
        if (saw_values) fail_key("grid", "axis repeats the \"values\" key");
        saw_values = true;
        if (!member.is_array()) {
          fail_key("grid.values",
                   std::string("expected an array, got ") + type_name(member));
        }
        for (const util::JsonValue& v : member.items()) {
          values.push_back(string_or_number("grid.values", v));
        }
      } else {
        fail_key("grid", "unknown axis key '" + key +
                             "' (an axis takes exactly \"name\" and "
                             "\"values\")");
      }
    }
    if (!saw_name) fail_key("grid", "axis is missing \"name\"");
    if (!saw_values || values.empty()) {
      fail_key("grid", "axis '" + axis_name +
                           "' needs a non-empty \"values\" array");
    }
    // add_axis teaches: unknown parameter names and duplicate axes both
    // throw with the registry list.
    grid.add_axis(std::move(axis_name), std::move(values));
  }
  return grid;
}

std::vector<std::pair<std::string, std::string>> parse_overrides(
    const util::JsonValue& value) {
  if (!value.is_object()) {
    fail_key("overrides",
             std::string("expected an object of parameter: value pairs, "
                         "got ") +
                 type_name(value));
  }
  std::vector<std::pair<std::string, std::string>> overrides;
  for (const auto& [key, member] : value.members()) {
    for (const auto& [seen, unused] : overrides) {
      (void)unused;
      if (seen == key) {
        fail_key("overrides", "duplicate parameter '" + key + "'");
      }
    }
    overrides.emplace_back(key, string_or_number("overrides." + key, member));
  }
  return overrides;
}

}  // namespace

const std::vector<std::string>& profile_keys() {
  static const std::vector<std::string> keys = {
      "name",  "description", "scenario",       "seed",  "warmup_hours",
      "measure_hours", "grid", "overrides", "shard",
  };
  return keys;
}

Profile Profile::from_json(const util::JsonValue& doc,
                           const sweep::ScenarioCatalog& catalog) {
  if (!doc.is_object()) {
    throw util::PreconditionError(
        std::string("a profile must be a JSON object, got ") + type_name(doc));
  }
  Profile p;
  std::vector<std::string> seen;
  for (const auto& [key, value] : doc.members()) {
    for (const std::string& prior : seen) {
      if (prior == key) fail_key(key, "appears more than once");
    }
    seen.push_back(key);
    if (key == "name") {
      p.name = require_string(key, value);
    } else if (key == "description") {
      p.description = require_string(key, value);
    } else if (key == "scenario") {
      p.scenario = require_string(key, value);
    } else if (key == "seed") {
      p.seed = parse_seed(value);
    } else if (key == "warmup_hours") {
      p.warmup_hours = require_number(key, value);
    } else if (key == "measure_hours") {
      p.measure_hours = require_number(key, value);
    } else if (key == "grid") {
      p.grid = parse_grid(value);
    } else if (key == "overrides") {
      p.overrides = parse_overrides(value);
    } else if (key == "shard") {
      p.shard = sweep::ShardSpec::parse(require_string(key, value));
    } else {
      fail_unknown_key(key);
    }
  }
  p.validate(catalog);
  return p;
}

Profile Profile::load(const std::string& path,
                      const sweep::ScenarioCatalog& catalog) {
  util::JsonValue doc;
  try {
    doc = util::JsonValue::parse_file(path);
  } catch (const std::exception& error) {
    throw util::PreconditionError("profile '" + path +
                                  "': " + error.what());
  }
  try {
    return from_json(doc, catalog);
  } catch (const util::PreconditionError& error) {
    throw util::PreconditionError("profile '" + path +
                                  "': " + error.what());
  }
}

Profile Profile::from_spec(const sweep::SweepSpec& spec, std::string name,
                           std::string description) {
  Profile p;
  p.name = std::move(name);
  p.description = std::move(description);
  p.scenario = spec.scenario;
  p.seed = spec.base_seed;
  p.warmup_hours = spec.warmup_hours;
  p.measure_hours = spec.measure_hours;
  p.grid = spec.grid;
  p.overrides = spec.overrides;
  p.shard = spec.shard;
  return p;
}

util::JsonValue Profile::to_json() const {
  util::JsonValue doc = util::JsonValue::object();
  if (!name.empty()) doc["name"] = name;
  if (!description.empty()) doc["description"] = description;
  doc["scenario"] = scenario;
  // Decimal string: 64-bit seeds do not survive a double round-trip.
  doc["seed"] = std::to_string(seed);
  doc["warmup_hours"] = warmup_hours;
  doc["measure_hours"] = measure_hours;
  if (!grid.axes().empty()) doc["grid"] = sweep::axes_to_json(grid.axes());
  if (!overrides.empty()) {
    util::JsonValue fixed = util::JsonValue::object();
    for (const auto& [parameter, value] : overrides) fixed[parameter] = value;
    doc["overrides"] = std::move(fixed);
  }
  if (!shard.whole()) doc["shard"] = shard.label();
  return doc;
}

void Profile::validate(const sweep::ScenarioCatalog& catalog) const {
  if (!(warmup_hours >= 0.0) || !std::isfinite(warmup_hours)) {
    fail_key("warmup_hours",
             "must be a finite number of hours >= 0, got " +
                 util::format_number(warmup_hours));
  }
  if (!(measure_hours > 0.0) || !std::isfinite(measure_hours)) {
    fail_key("measure_hours",
             "must be a finite number of hours > 0, got " +
                 util::format_number(measure_hours));
  }
  if (shard.count < 1 || shard.index >= shard.count) {
    fail_key("shard", "must be k/N with 0 <= k < N, got " + shard.label());
  }
  // The scenario expression (including any `@` fire times) resolves
  // against the catalog — unknown parts and malformed times throw the
  // resolver's teaching errors.
  const sweep::Scenario resolved = catalog.resolve(scenario);
  // Every grid cell's assembled config (scenario, overrides, then the
  // cell's coordinates) must apply and validate, so a typo'd mode or an
  // out-of-range value fails at load time with the cell named, not
  // mid-sweep on a worker thread. Cells, not single values: an axis value
  // may be valid only together with another axis's value.
  sweep::SweepSpec spec;
  spec.grid = grid;
  spec.warmup_hours = warmup_hours;
  spec.measure_hours = measure_hours;
  spec.overrides = overrides;
  for (std::size_t cell = 0; cell < grid.num_points(); ++cell) {
    const sweep::GridPoint point = grid.point(cell);
    try {
      const expr::ExperimentConfig config =
          sweep::SweepRunner::cell_config(spec, resolved, point);
      config.validate();
      // The checks the run makes when it builds the cell's workload (a
      // tail channel's Zipf weight underflowing to a zero arrival
      // envelope, the uplink rescale) fail here, before any cell runs.
      (void)workload::Workload(config.workload, /*seed=*/0);
      // The timed ops a composite like `catalog_refresh@90m` schedules
      // must pass the runner's dry pass (no frozen-field mutations, valid
      // intermediate workloads).
      expr::validate_timeline(config);
    } catch (const util::PreconditionError& e) {
      if (point.coords.empty()) throw;
      throw util::PreconditionError("grid cell " + std::to_string(cell) +
                                    " (" + point.label() + "): " + e.what());
    }
  }
}

}  // namespace cloudmedia::profile

namespace cloudmedia::sweep {

SweepSpec SweepSpec::from_profile(const profile::Profile& p) {
  p.validate();
  SweepSpec spec;
  spec.scenario = p.scenario;
  spec.grid = p.grid;
  spec.base_seed = p.seed;
  spec.threads = 0;  // execution knob: hardware by default, never in a profile
  spec.warmup_hours = p.warmup_hours;
  spec.measure_hours = p.measure_hours;
  spec.shard = p.shard;
  spec.overrides = p.overrides;
  return spec;
}

}  // namespace cloudmedia::sweep
