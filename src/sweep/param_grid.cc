#include "sweep/param_grid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geo/federation.h"
#include "predict/forecaster.h"
#include "util/check.h"

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

struct ParameterEntry {
  const char* name;
  bool affects_workload;
  void (*apply)(expr::ExperimentConfig&, const std::string&);
};

void apply_mode(expr::ExperimentConfig& cfg, const std::string& value) {
  if (value == "cs") {
    cfg.mode = core::StreamingMode::kClientServer;
  } else if (value == "p2p") {
    cfg.mode = core::StreamingMode::kP2p;
  } else {
    throw util::PreconditionError("sweep parameter mode: expected cs|p2p, got '" +
                                  value + "'");
  }
}

void apply_strategy(expr::ExperimentConfig& cfg, const std::string& value) {
  if (value == "model") {
    cfg.strategy = expr::Strategy::kModelBased;
    cfg.occupancy_floor = true;
  } else if (value == "model-nofloor") {
    cfg.strategy = expr::Strategy::kModelBased;
    cfg.occupancy_floor = false;
  } else if (value == "reactive") {
    cfg.strategy = expr::Strategy::kReactive;
  } else if (value == "static") {
    cfg.strategy = expr::Strategy::kStatic;
  } else if (value == "seasonal") {
    cfg.strategy = expr::Strategy::kSeasonal;
  } else if (value == "clairvoyant") {
    cfg.strategy = expr::Strategy::kClairvoyant;
  } else if (value == "forecast") {
    cfg.strategy = expr::Strategy::kForecast;
  } else {
    throw util::PreconditionError(
        "sweep parameter strategy: expected model|model-nofloor|reactive|"
        "static|seasonal|clairvoyant|forecast, got '" + value + "'");
  }
}

void apply_capacity(expr::ExperimentConfig& cfg, const std::string& value) {
  if (value == "literal") {
    cfg.capacity_model = core::CapacityModel::kPerChunkLiteral;
  } else if (value == "pooled") {
    cfg.capacity_model = core::CapacityModel::kChannelPooled;
  } else {
    throw util::PreconditionError(
        "sweep parameter capacity: expected literal|pooled, got '" + value +
        "'");
  }
}

void apply_p2p_cap(expr::ExperimentConfig& cfg, const std::string& value) {
  if (value == "literal") {
    cfg.p2p.demand_cap = core::P2pDemandCap::kStreamingRateLiteral;
  } else if (value == "bandwidth") {
    cfg.p2p.demand_cap = core::P2pDemandCap::kProvisionedBandwidth;
  } else {
    throw util::PreconditionError(
        "sweep parameter p2p_cap: expected literal|bandwidth, got '" + value +
        "'");
  }
}

void apply_forecaster(expr::ExperimentConfig& cfg, const std::string& value) {
  predict::ForecasterKind kind;
  try {
    kind = predict::forecaster_kind_from_string(value);
  } catch (const util::PreconditionError&) {
    std::string known;
    for (const predict::ForecasterKind k : predict::all_forecaster_kinds()) {
      if (!known.empty()) known += "|";
      known += predict::to_string(k);
    }
    throw util::PreconditionError("sweep parameter forecaster: expected " +
                                  known + ", got '" + value + "'");
  }
  cfg.strategy = expr::Strategy::kForecast;
  cfg.forecaster = kind;
}

// The chunk-size axis (ablation_chunk_size, paper footnote 3): T0 in
// minutes over a 100-minute video, so J = round(100 / T0). The physical
// viewing processes stay fixed across T0 — seeks fire at rate 1/15 min,
// departures at 1/37 min — and over one chunk the two exponential risks
// compete:
//   P(neither) = e^{-(rj+rl) T0},  P(jump) = rj/(rj+rl) · (1 − P(neither)),
// which keeps jump + leave <= 1 for any chunk duration.
void apply_chunk_minutes(expr::ExperimentConfig& cfg, const std::string& v) {
  const double t0_minutes = parse_double("chunk_minutes", v);
  if (!(t0_minutes > 0.0) || t0_minutes > 100.0) {
    throw util::PreconditionError(
        "sweep parameter chunk_minutes: expected (0, 100], got '" + v + "'");
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

// The geo axis (ablation_geo, paper Sec. VII): reshape the experiment into
// one region of the default three-region federation — its audience share,
// shifted diurnal clock, regional prices, and proportional budget slice.
// "global" keeps the whole audience on one clock (the consolidated
// baseline).
void apply_region(expr::ExperimentConfig& cfg, const std::string& value) {
  if (value == "global") return;
  if (const geo::RegionSpec* region = geo::find_region(value)) {
    geo::apply_region(cfg, *region);
    return;
  }
  std::string known = "global";
  for (const geo::RegionSpec& region : geo::default_regions()) {
    known += "|" + region.name;
  }
  throw util::PreconditionError("sweep parameter region: expected " + known +
                                ", got '" + value + "'");
}

const ParameterEntry kRegistry[] = {
    {"channels", true,
     [](expr::ExperimentConfig& cfg, const std::string& v) {
       cfg.workload.num_channels = parse_int("channels", v);
     }},
    {"arrival", true,
     [](expr::ExperimentConfig& cfg, const std::string& v) {
       cfg.workload.total_arrival_rate = parse_double("arrival", v);
     }},
    {"zipf", true,
     [](expr::ExperimentConfig& cfg, const std::string& v) {
       cfg.workload.zipf_exponent = parse_double("zipf", v);
     }},
    {"uplink_ratio", true,
     [](expr::ExperimentConfig& cfg, const std::string& v) {
       cfg.workload.uplink_mean_ratio = parse_double("uplink_ratio", v);
     }},
    {"jump", true,
     [](expr::ExperimentConfig& cfg, const std::string& v) {
       cfg.workload.behavior.jump_prob = parse_double("jump", v);
     }},
    {"leave", true,
     [](expr::ExperimentConfig& cfg, const std::string& v) {
       cfg.workload.behavior.leave_prob = parse_double("leave", v);
     }},
    {"alpha", true,
     [](expr::ExperimentConfig& cfg, const std::string& v) {
       cfg.workload.behavior.alpha = parse_double("alpha", v);
     }},
    {"uplink_shape", true,
     [](expr::ExperimentConfig& cfg, const std::string& v) {
       // Pareto tail exponent of the peer uplink. uplink_mean_ratio keeps
       // the mean pinned, so this axis varies *spread* at constant mean —
       // the ablation_hetero question.
       cfg.workload.uplink_shape = parse_double("uplink_shape", v);
     }},
    {"chunk_minutes", true, apply_chunk_minutes},
    {"region", true, apply_region},
    {"mode", false, apply_mode},
    {"strategy", false, apply_strategy},
    {"capacity", false, apply_capacity},
    {"vm_budget", false,
     [](expr::ExperimentConfig& cfg, const std::string& v) {
       cfg.vm_budget_per_hour = parse_double("vm_budget", v);
     }},
    {"storage_budget", false,
     [](expr::ExperimentConfig& cfg, const std::string& v) {
       cfg.storage_budget_per_hour = parse_double("storage_budget", v);
     }},
    {"boot_delay", false,
     [](expr::ExperimentConfig& cfg, const std::string& v) {
       cfg.vm_boot_delay = parse_double("boot_delay", v);
     }},
    {"p2p_cap", false, apply_p2p_cap},
    {"forecaster", false, apply_forecaster},
    // System-side: which simulation core runs the cell. Not a workload
    // axis — engine=discrete and engine=auto cells below the cohort
    // threshold replay the byte-identical viewer population.
    {"engine", false,
     [](expr::ExperimentConfig& cfg, const std::string& v) {
       try {
         cfg.engine = expr::engine_from_string(v);
       } catch (const util::PreconditionError&) {
         throw util::PreconditionError(
             "sweep parameter engine: expected discrete|cohort|auto, got '" +
             v + "'");
       }
     }},
};

const ParameterEntry* find_parameter(const std::string& name) {
  for (const ParameterEntry& entry : kRegistry) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= kFnvPrime;
  }
}

[[noreturn]] void throw_unknown_parameter(const std::string& name) {
  std::string known;
  for (const std::string& parameter : known_parameters()) {
    if (!known.empty()) known += ", ";
    known += parameter;
  }
  throw util::PreconditionError("unknown sweep parameter '" + name +
                                "' (known: " + known + ")");
}

}  // namespace

void apply_parameter(expr::ExperimentConfig& config, const std::string& name,
                     const std::string& value) {
  const ParameterEntry* entry = find_parameter(name);
  if (entry == nullptr) throw_unknown_parameter(name);
  entry->apply(config, value);
}

bool parameter_affects_workload(const std::string& name) {
  const ParameterEntry* entry = find_parameter(name);
  CM_EXPECTS(entry != nullptr);
  return entry->affects_workload;
}

std::vector<std::string> known_parameters() {
  std::vector<std::string> names;
  for (const ParameterEntry& entry : kRegistry) names.emplace_back(entry.name);
  std::sort(names.begin(), names.end());
  return names;
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
  if (find_parameter(name) == nullptr) throw_unknown_parameter(name);
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
