#include "sweep/param_grid.h"

#include <cmath>
#include <functional>
#include <stdexcept>

#include "geo/federation.h"
#include "predict/forecaster.h"
#include "util/check.h"
#include "util/json.h"

namespace cloudmedia::sweep {

namespace {

double parse_double(const std::string& name, const std::string& value) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw util::PreconditionError("sweep parameter " + name +
                                  ": not a number: '" + value + "'");
  }
}

int parse_int(const std::string& name, const std::string& value) {
  try {
    std::size_t used = 0;
    const int parsed = std::stoi(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw util::PreconditionError("sweep parameter " + name +
                                  ": not an integer: '" + value + "'");
  }
}

using Config = expr::ExperimentConfig;
using expr::Engine;
using expr::Strategy;

/// One accepted spelling of a choice parameter and the config it sets.
struct Choice {
  std::string spelling;
  std::function<void(Config&)> set;
};

/// One registered parameter. A choice parameter is a table of spellings,
/// each with its setter: looking a value up is applying it, and the
/// spellings are the error text, the --list vocabulary and the fuzzer's
/// draws. A numeric parameter parses its value for `set_number` and
/// carries sample values instead — the ranges the committed presets and
/// the paper's evaluation exercise, so the fuzzer combines plausible
/// values rather than probing range validation.
struct ParameterEntry {
  std::string name;
  bool affects_workload;
  std::vector<std::string> values;  ///< the spellings, or the samples
  std::vector<Choice> choices;      ///< empty for a numeric parameter
  bool integer = false;
  void (*set_number)(Config&, double) = nullptr;
};

/// The spelling that sets one field of the config to `value`.
template <typename T>
Choice assign(std::string spelling, T Config::*field, T value) {
  return {std::move(spelling),
          [field, value](Config& cfg) { cfg.*field = value; }};
}

ParameterEntry choice(std::string name, bool affects_workload,
                      std::vector<Choice> choices) {
  ParameterEntry entry{std::move(name), affects_workload, {},
                       std::move(choices)};
  for (const Choice& c : entry.choices) entry.values.push_back(c.spelling);
  return entry;
}

ParameterEntry number(std::string name, bool affects_workload,
                      std::vector<std::string> samples,
                      void (*set)(Config&, double), bool integer = false) {
  return {std::move(name), affects_workload, std::move(samples), {}, integer,
          set};
}

std::vector<Choice> forecaster_choices() {
  std::vector<Choice> choices;
  for (const predict::ForecasterKind kind : predict::all_forecaster_kinds()) {
    choices.push_back({predict::to_string(kind), [kind](Config& cfg) {
                         cfg.strategy = Strategy::kForecast;
                         cfg.forecaster = kind;
                       }});
  }
  return choices;
}

// The geo axis (ablation_geo, paper Sec. VII): reshape the experiment into
// one region of the default three-region federation — its audience share,
// shifted diurnal clock, regional prices, and proportional budget slice.
// "global" keeps the whole audience on one clock (the consolidated
// baseline).
std::vector<Choice> region_choices() {
  std::vector<Choice> choices = {{"global", [](Config&) {}}};
  for (const geo::RegionSpec& region : geo::default_regions()) {
    choices.push_back({region.name, [&region](Config& cfg) {
                         geo::apply_region(cfg, region);
                       }});
  }
  return choices;
}

// The chunk-size axis (ablation_chunk_size, paper footnote 3): T0 in
// minutes over a 100-minute video, so J = round(100 / T0). The physical
// viewing processes stay fixed across T0 — seeks fire at rate 1/15 min,
// departures at 1/37 min — and over one chunk the two exponential risks
// compete:
//   P(neither) = e^{-(rj+rl) T0},  P(jump) = rj/(rj+rl) · (1 − P(neither)),
// which keeps jump + leave <= 1 for any chunk duration.
void set_chunk_minutes(Config& cfg, double t0_minutes) {
  if (!(t0_minutes > 0.0) || t0_minutes > 100.0) {
    throw util::PreconditionError(
        "sweep parameter chunk_minutes: expected (0, 100], got " +
        util::format_number(t0_minutes));
  }
  constexpr double kVideoMinutes = 100.0;
  constexpr double kSeekIntervalMinutes = 15.0;
  constexpr double kLeaveIntervalMinutes = 37.0;  // mean viewing time
  cfg.vod.chunk_duration = t0_minutes * 60.0;
  cfg.vod.chunks_per_video =
      static_cast<int>(std::lround(kVideoMinutes / t0_minutes));
  cfg.workload.chunks_per_video = cfg.vod.chunks_per_video;
  const double rj = 1.0 / kSeekIntervalMinutes;
  const double rl = 1.0 / kLeaveIntervalMinutes;
  const double event_prob = 1.0 - std::exp(-(rj + rl) * t0_minutes);
  cfg.workload.behavior.jump_prob = event_prob * rj / (rj + rl);
  cfg.workload.behavior.leave_prob = event_prob * rl / (rj + rl);
}

/// Every parameter; the second argument is affects_workload, and the
/// workload-shaping parameters come first.
const std::vector<ParameterEntry>& registry() {
  static const std::vector<ParameterEntry> entries = {
      number(
          "channels", true, {"2", "3", "4", "6", "8"},
          [](Config& cfg, double v) {
            cfg.workload.num_channels = static_cast<int>(v);
          },
          /*integer=*/true),
      number("arrival", true, {"0.5", "1", "1.5", "2"},
             [](Config& cfg, double v) {
               cfg.workload.total_arrival_rate = v;
             }),
      number("zipf", true, {"0.8", "1", "1.2"},
             [](Config& cfg, double v) { cfg.workload.zipf_exponent = v; }),
      number("uplink_ratio", true, {"0.9", "1", "1.2"},
             [](Config& cfg, double v) {
               cfg.workload.uplink_mean_ratio = v;
             }),
      number("jump", true, {"0.1", "0.28", "0.4"},
             [](Config& cfg, double v) {
               cfg.workload.behavior.jump_prob = v;
             }),
      number("leave", true, {"0.05", "0.12", "0.2"},
             [](Config& cfg, double v) {
               cfg.workload.behavior.leave_prob = v;
             }),
      number("alpha", true, {"0.4", "0.6", "0.8"},
             [](Config& cfg, double v) { cfg.workload.behavior.alpha = v; }),
      // Pareto tail exponent of the peer uplink. uplink_mean_ratio keeps
      // the mean pinned, so this axis varies *spread* at constant mean —
      // the ablation_hetero question.
      number("uplink_shape", true, {"1.5", "3", "8"},
             [](Config& cfg, double v) { cfg.workload.uplink_shape = v; }),
      number("chunk_minutes", true, {"2.5", "5", "10", "20"},
             set_chunk_minutes),
      choice("region", true, region_choices()),
      choice("mode", false,
             {assign("cs", &Config::mode, core::StreamingMode::kClientServer),
              assign("p2p", &Config::mode, core::StreamingMode::kP2p)}),
      choice("strategy", false,
             {{"model",
               [](Config& cfg) {
                 cfg.strategy = Strategy::kModelBased;
                 cfg.occupancy_floor = true;
               }},
              {"model-nofloor",
               [](Config& cfg) {
                 cfg.strategy = Strategy::kModelBased;
                 cfg.occupancy_floor = false;
               }},
              assign("reactive", &Config::strategy, Strategy::kReactive),
              assign("static", &Config::strategy, Strategy::kStatic),
              assign("seasonal", &Config::strategy, Strategy::kSeasonal),
              assign("clairvoyant", &Config::strategy,
                     Strategy::kClairvoyant),
              assign("forecast", &Config::strategy, Strategy::kForecast)}),
      choice("capacity", false,
             {assign("literal", &Config::capacity_model,
                     core::CapacityModel::kPerChunkLiteral),
              assign("pooled", &Config::capacity_model,
                     core::CapacityModel::kChannelPooled)}),
      number("vm_budget", false, {"50", "100", "200"},
             [](Config& cfg, double v) { cfg.vm_budget_per_hour = v; }),
      number("storage_budget", false, {"0.5", "1", "2"},
             [](Config& cfg, double v) { cfg.storage_budget_per_hour = v; }),
      number("boot_delay", false, {"0", "25", "120", "600"},
             [](Config& cfg, double v) { cfg.vm_boot_delay = v; }),
      choice("p2p_cap", false,
             {{"literal",
               [](Config& cfg) {
                 cfg.p2p.demand_cap = core::P2pDemandCap::kStreamingRateLiteral;
               }},
              {"bandwidth",
               [](Config& cfg) {
                 cfg.p2p.demand_cap = core::P2pDemandCap::kProvisionedBandwidth;
               }}}),
      choice("forecaster", false, forecaster_choices()),
      // Which simulation core runs the cell. Not a workload axis —
      // engine=discrete and engine=auto cells below the cohort threshold
      // replay the byte-identical viewer population.
      choice("engine", false,
             {assign("discrete", &Config::engine, Engine::kDiscrete),
              assign("cohort", &Config::engine, Engine::kCohort),
              assign("auto", &Config::engine, Engine::kAuto)}),
  };
  return entries;
}

const ParameterEntry& known_parameter(const std::string& name) {
  for (const ParameterEntry& entry : registry()) {
    if (name == entry.name) return entry;
  }
  std::string known;
  for (const ParameterEntry& entry : registry()) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  throw util::PreconditionError("unknown sweep parameter '" + name +
                                "' (known: " + known + ")");
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= kFnvPrime;
  }
}

}  // namespace

void apply_parameter(expr::ExperimentConfig& config, const std::string& name,
                     const std::string& value) {
  const ParameterEntry& entry = known_parameter(name);
  if (entry.choices.empty()) {
    entry.set_number(config, entry.integer ? parse_int(name, value)
                                           : parse_double(name, value));
    return;
  }
  for (const Choice& c : entry.choices) {
    if (c.spelling == value) {
      c.set(config);
      return;
    }
  }
  throw util::PreconditionError("sweep parameter " + name + ": expected " +
                                parameter_spellings(name) + ", got '" + value +
                                "'");
}

bool parameter_affects_workload(const std::string& name) {
  return known_parameter(name).affects_workload;
}

std::vector<std::string> known_parameters() {
  std::vector<std::string> names;
  for (const ParameterEntry& entry : registry()) names.push_back(entry.name);
  return names;
}

std::string parameter_spellings(const std::string& name) {
  std::string spellings;
  for (const Choice& c : known_parameter(name).choices) {
    if (!spellings.empty()) spellings += '|';
    spellings += c.spelling;
  }
  return spellings;
}

const std::vector<std::string>& parameter_values(const std::string& name) {
  return known_parameter(name).values;
}

std::string GridPoint::label() const {
  std::string text;
  for (const auto& [name, value] : coords) {
    if (!text.empty()) text += ',';
    text += name + "=" + value;
  }
  return text;
}

void ParamGrid::add_axis(std::string name, std::vector<std::string> values) {
  CM_EXPECTS(!values.empty());
  (void)known_parameter(name);
  for (const ParamAxis& axis : axes_) {
    if (axis.name == name) {
      throw util::PreconditionError("duplicate sweep axis '" + name + "'");
    }
  }
  axes_.push_back(ParamAxis{std::move(name), std::move(values)});
}

ParamGrid ParamGrid::parse(const std::vector<std::string>& specs) {
  ParamGrid grid;
  for (const std::string& spec : specs) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
      throw util::PreconditionError("bad --grid spec '" + spec +
                                    "' (want name=v1,v2,...)");
    }
    std::vector<std::string> values;
    std::size_t start = eq + 1;
    while (start <= spec.size()) {
      const std::size_t comma = spec.find(',', start);
      const std::size_t end = comma == std::string::npos ? spec.size() : comma;
      if (end == start) {
        throw util::PreconditionError("bad --grid spec '" + spec +
                                      "': empty value");
      }
      values.push_back(spec.substr(start, end - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    grid.add_axis(spec.substr(0, eq), std::move(values));
  }
  return grid;
}

std::size_t ParamGrid::num_points() const noexcept {
  std::size_t n = 1;
  for (const ParamAxis& axis : axes_) n *= axis.values.size();
  return n;
}

GridPoint ParamGrid::point(std::size_t index) const {
  CM_EXPECTS(index < num_points());
  GridPoint point;
  point.coords.resize(axes_.size());
  // Mixed-radix decode, last axis fastest.
  for (std::size_t a = axes_.size(); a-- > 0;) {
    const std::vector<std::string>& values = axes_[a].values;
    point.coords[a] = {axes_[a].name, values[index % values.size()]};
    index /= values.size();
  }
  return point;
}

std::uint64_t ParamGrid::workload_hash(const GridPoint& point) {
  // Hashes *grid* coordinates only — scenario ops, timed or not, never
  // enter this hash. That is a load-bearing invariant: adding an `@`-timed
  // system op to a scenario expression (regional_outage@6h+recovery@18h)
  // must replay the byte-identical viewer population of the plain run, at
  // any --threads value (pinned by timeline_test.cc).
  std::uint64_t hash = kFnvOffset;
  for (const auto& [name, value] : point.coords) {
    if (!parameter_affects_workload(name)) continue;
    fnv_mix(hash, name);
    fnv_mix(hash, "=");
    fnv_mix(hash, value);
    fnv_mix(hash, ";");
  }
  return hash;
}

}  // namespace cloudmedia::sweep
