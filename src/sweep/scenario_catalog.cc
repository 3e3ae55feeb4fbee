#include "sweep/scenario_catalog.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "util/check.h"
#include "workload/distributions.h"
#include "workload/viewing.h"

namespace cloudmedia::sweep {

namespace {

using workload::DiurnalPattern;

constexpr bool kWorkload = true;
constexpr bool kSystem = false;

std::string trim(const std::string& text) {
  const char* ws = " \t";
  const std::size_t begin = text.find_first_not_of(ws);
  if (begin == std::string::npos) return {};
  const std::size_t end = text.find_last_not_of(ws);
  return text.substr(begin, end - begin + 1);
}

/// Blend two diurnal patterns: own-clock peaks at `own_share` amplitude
/// plus the same peaks shifted by `offset_hours` at `1 - own_share`. Used
/// by geo_skewed (50/50) and regional_outage (55/45 survivor/failed).
DiurnalPattern two_population_diurnal(double own_share, double offset_hours) {
  const DiurnalPattern base = DiurnalPattern::paper_default();
  const DiurnalPattern shifted = base.shifted(offset_hours);
  std::vector<DiurnalPattern::Peak> peaks;
  for (DiurnalPattern::Peak peak : base.peaks()) {
    peak.amplitude *= own_share;
    peaks.push_back(peak);
  }
  for (DiurnalPattern::Peak peak : shifted.peaks()) {
    peak.amplitude *= 1.0 - own_share;
    peaks.push_back(peak);
  }
  return DiurnalPattern(base.base(), peaks);
}

ScenarioCatalog build_builtins() {
  ScenarioCatalog catalog;

  // The identity of the algebra: paper defaults, no ops. Composing with it
  // ("baseline_diurnal+x") is the same as "x".
  catalog.add({"baseline_diurnal",
               "paper Sec. VI-A default: 20 Zipf channels, diurnal arrivals "
               "with two flash crowds",
               {}});

  catalog.add({"flash_crowd",
               "quiet base load broken by two steep, short-lived crowds "
               "(3x spikes, ~25-minute sigma)",
               {{"diurnal.flash_crowd",
                 "replace the diurnal pattern with a 0.55 base and two "
                 "sharp 3x/3.4x spikes at 12:00 and 20:30",
                 kWorkload,
                 [](expr::ExperimentConfig& cfg) {
                   cfg.workload.diurnal = DiurnalPattern(
                       0.55, {{12.0, 3.0, 0.4}, {20.5, 3.4, 0.45}});
                 }}}});

  catalog.add(
      {"weekend_surge",
       "sustained high plateau with one broad evening peak — the "
       "all-day-viewing weekend shape",
       {{"diurnal.weekend_plateau",
         "replace the diurnal pattern with a 1.1 base and two broad "
         "afternoon/evening bumps",
         kWorkload,
         [](expr::ExperimentConfig& cfg) {
           cfg.workload.diurnal =
               DiurnalPattern(1.1, {{15.0, 0.8, 3.0}, {21.0, 1.2, 2.0}});
         }},
        {"arrival.weekend_scale",
         "raise the aggregate arrival rate by 15%",
         kWorkload,
         [](expr::ExperimentConfig& cfg) {
           cfg.workload.total_arrival_rate *= 1.15;
         }}}});

  catalog.add(
      {"churn_heavy",
       "zapping viewers: short sessions, frequent VCR jumps; arrival "
       "rate raised to hold population near the paper's scale",
       {{"behavior.zapping",
         "short sessions (leave 0.30), frequent VCR jumps (jump 0.40), "
         "more mid-video entries (alpha 0.5)",
         kWorkload,
         [](expr::ExperimentConfig& cfg) {
           cfg.workload.behavior.leave_prob = 0.30;
           cfg.workload.behavior.jump_prob = 0.40;
           cfg.workload.behavior.alpha = 0.5;
         }},
        {"arrival.churn_scale",
         "raise the aggregate arrival rate 2.4x to hold the concurrent "
         "population near the paper's scale",
         kWorkload,
         [](expr::ExperimentConfig& cfg) {
           cfg.workload.total_arrival_rate *= 2.4;
         }}}});

  catalog.add({"long_tail_catalog",
               "80 channels under a flatter Zipf (exponent 0.6): most "
               "channels sit in the thin tail the pooled sizing must protect",
               {{"catalog.long_tail",
                 "grow the catalog to 80 channels under Zipf exponent 0.6",
                 kWorkload,
                 [](expr::ExperimentConfig& cfg) {
                   cfg.workload.num_channels = 80;
                   cfg.workload.zipf_exponent = 0.6;
                 }}}});

  catalog.add({"geo_skewed",
               "two viewer populations 8 hours apart: each contributes the "
               "paper's two crowds at half amplitude, shifted by timezone",
               {{"diurnal.two_timezones",
                 "split the audience 50/50 across clocks 8 hours apart, "
                 "each half contributing the paper's peaks at half amplitude",
                 kWorkload,
                 [](expr::ExperimentConfig& cfg) {
                   cfg.workload.diurnal = two_population_diurnal(0.5, 8.0);
                 }}}});

  // ------------------------------------------------ catalog growth (PR 5)

  catalog.add(
      {"regional_outage",
       "one region of the three-region federation collapses mid-peak: the "
       "surviving stack absorbs the failed region's audience on its "
       "8-hour-shifted clock, with only the survivor's budget slice",
       {{"outage.rerouted_audience",
         "keep the full global audience but blend diurnal clocks 55/45: "
         "the failed region's 45% share lands with peaks shifted 8 hours",
         kWorkload,
         [](expr::ExperimentConfig& cfg) {
           cfg.workload.diurnal = two_population_diurnal(0.55, 8.0);
         }},
        {"budget.survivor_slice",
         "cut VM and storage budgets to the surviving region's 55% "
         "proportional share (as geo::apply_region slices budgets)",
         kSystem,
         [](expr::ExperimentConfig& cfg) {
           cfg.vm_budget_per_hour *= 0.55;
           cfg.storage_budget_per_hour *= 0.55;
         }}}});

  catalog.add(
      {"live_event_cliff",
       "synchronized arrival wall at 20:00 followed by mass departure when "
       "the near-simultaneous sessions end together",
       {{"diurnal.event_wall",
         "near-flat 0.25 base with one 8x spike of ~12-minute sigma at "
         "20:00 — the whole audience arrives at once",
         kWorkload,
         [](expr::ExperimentConfig& cfg) {
           cfg.workload.diurnal = DiurnalPattern(0.25, {{20.0, 8.0, 0.2}});
         }},
        {"behavior.synchronized_viewing",
         "everyone starts at chunk 1 (alpha 1.0) and seeks rarely (jump "
         "0.05, leave 0.15), so departures cliff when the event ends",
         kWorkload,
         [](expr::ExperimentConfig& cfg) {
           cfg.workload.behavior.alpha = 1.0;
           cfg.workload.behavior.jump_prob = 0.05;
           cfg.workload.behavior.leave_prob = 0.15;
         }}}});

  catalog.add({"catalog_refresh",
               "channel popularity reshuffles every 2 simulated hours: a "
               "channel's rank rotates by 7, so demand history predicts the "
               "wrong channels right after each refresh",
               {{"catalog.refresh_rotation",
                 "rotate the channel-to-popularity-rank mapping by 7 ranks "
                 "every 2 hours (workload::WorkloadConfig refresh knobs)",
                 kWorkload,
                 [](expr::ExperimentConfig& cfg) {
                   cfg.workload.refresh_period_hours = 2.0;
                   cfg.workload.refresh_shift = 7;
                 }}}});

  catalog.add(
      {"startup_stampede",
       "cold start: a 5x arrival burst centred at t=0 hits a controller "
       "with no demand history, then decays to a quiet base",
       {{"diurnal.cold_start_burst",
         "quiet 0.3 base with one 5x burst of ~18-minute sigma centred at "
         "hour 0 — the stampede begins the instant the service opens",
         kWorkload,
         [](expr::ExperimentConfig& cfg) {
           cfg.workload.diurnal = DiurnalPattern(0.3, {{0.0, 5.0, 0.3}});
         }},
        {"behavior.fresh_audience",
         "almost every stampeder is a new viewer starting at chunk 1 "
         "(alpha 0.95) — no resume points in a cold catalog",
         kWorkload,
         [](expr::ExperimentConfig& cfg) {
           cfg.workload.behavior.alpha = 0.95;
         }}}});

  // ------------------------------------------------- timed events (PR 6)

  // The recovery primitive restores the *pre-timeline* snapshot: the config
  // as the runner saw it before any timed op fired (paper defaults plus
  // every untimed op, grid coordinate, and customize hook). Composed after
  // a timed disturbance ("regional_outage@6h+recovery@18h") it undoes the
  // disturbance; without a fire time nothing has diverged yet, so it is
  // the identity of the algebra like baseline_diurnal.
  catalog.add(
      {"recovery",
       "scheduled return to the pre-timeline config: restores workload "
       "shape and budgets to the values they had before any timed op "
       "fired; compose with a fire time (regional_outage@6h+recovery@18h) "
       "— untimed it is the identity",
       {{"timeline.recover_workload",
         "restore the arrival pattern, viewing behaviour, catalog "
         "popularity, and peer uplinks to their pre-timeline values",
         kWorkload,
         [](expr::ExperimentConfig&) {},  // untimed: nothing diverged yet
         0.0,
         [](expr::ExperimentConfig& live,
            const expr::ExperimentConfig& baseline) {
           live.workload = baseline.workload;
         }},
        {"timeline.recover_budgets",
         "restore the VM and storage budgets to their pre-timeline values "
         "(the SLA is renegotiated at the same boundary)",
         kSystem,
         [](expr::ExperimentConfig&) {},
         0.0,
         [](expr::ExperimentConfig& live,
            const expr::ExperimentConfig& baseline) {
           live.vm_budget_per_hour = baseline.vm_budget_per_hour;
           live.storage_budget_per_hour = baseline.storage_budget_per_hour;
         }}}});

  // startup_stampede reshapes the config at t=0 (its ops are untimed), so
  // the pre-timeline snapshot recovery restores *includes* the stampede —
  // healing it needs a bespoke timed op that puts back the paper-default
  // diurnal and entry mix instead of the recovery primitive.
  {
    Scenario stampede = catalog.at("startup_stampede");
    stampede.name = "stampede_recovery";
    stampede.description =
        "cold-start stampede the schedule heals: the 5x t=0 burst shapes "
        "the run until hour 4, when the crowd subsides to the paper "
        "baseline and the controller re-converges";
    stampede.ops.push_back(
        {"timeline.stampede_subsides",
         "at hour 4 the stampede is over: restore the paper-default "
         "diurnal pattern and entry mix (alpha back to the default)",
         kWorkload,
         [](expr::ExperimentConfig&) {},  // untimed form never applies
         4.0 * 3600.0,
         [](expr::ExperimentConfig& live, const expr::ExperimentConfig&) {
           live.workload.diurnal = DiurnalPattern::paper_default();
           live.workload.behavior.alpha = workload::ViewingBehavior{}.alpha;
         }});
    catalog.add(std::move(stampede));
  }

  return catalog;
}

}  // namespace

void Scenario::apply(expr::ExperimentConfig& config) const {
  for (const ScenarioOp& op : ops) {
    if (op.fire_time > 0.0) {
      expr::TimedConfigOp timed;
      timed.fire_time = op.fire_time;
      timed.name = op.name;
      if (op.apply_at_fire) {
        timed.apply = op.apply_at_fire;
      } else {
        timed.apply = [fn = op.apply](expr::ExperimentConfig& live,
                                      const expr::ExperimentConfig&) {
          fn(live);
        };
      }
      config.timeline.push_back(std::move(timed));
    } else {
      op.apply(config);
    }
  }
}

double parse_fire_time(const std::string& text) {
  const auto bad = [&text](const std::string& why) {
    return util::PreconditionError(
        "bad fire time '" + text + "': " + why +
        " (syntax: <number><unit> with unit h, m, or s — e.g. "
        "regional_outage@6h, recovery@30m, catalog_refresh@90s)");
  };
  if (text.empty()) throw bad("missing time after '@'");
  const char unit = text.back();
  double scale = 0.0;
  if (unit == 'h') {
    scale = 3600.0;
  } else if (unit == 'm') {
    scale = 60.0;
  } else if (unit == 's') {
    scale = 1.0;
  } else {
    throw bad(std::string("unknown unit '") + unit + "'");
  }
  const std::string number = text.substr(0, text.size() - 1);
  if (number.empty()) throw bad("missing value before the unit");
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(number, &consumed);
  } catch (const std::exception&) {
    throw bad("'" + number + "' is not a number");
  }
  if (consumed != number.size()) throw bad("'" + number + "' is not a number");
  if (!std::isfinite(value) || value < 0.0) {
    throw bad("the value must be finite and >= 0");
  }
  return value * scale;
}

std::string format_fire_time(double seconds) {
  char buffer[64];
  double value = seconds;
  char unit = 's';
  if (seconds >= 3600.0 && std::fmod(seconds, 3600.0) == 0.0) {
    value = seconds / 3600.0;
    unit = 'h';
  } else if (seconds >= 60.0 && std::fmod(seconds, 60.0) == 0.0) {
    value = seconds / 60.0;
    unit = 'm';
  }
  std::snprintf(buffer, sizeof buffer, "%g%c", value, unit);
  return buffer;
}

ScenarioCatalog ScenarioCatalog::with_builtins() { return build_builtins(); }

const ScenarioCatalog& ScenarioCatalog::global() {
  static const ScenarioCatalog catalog = build_builtins();
  return catalog;
}

void ScenarioCatalog::add(Scenario scenario) {
  CM_EXPECTS(!scenario.name.empty());
  if (scenario.name.find('+') != std::string::npos) {
    throw util::PreconditionError("scenario name '" + scenario.name +
                                  "' contains '+', the composition operator");
  }
  for (const ScenarioOp& op : scenario.ops) {
    CM_EXPECTS(!op.name.empty());
    CM_EXPECTS(op.apply != nullptr);
    CM_EXPECTS(op.fire_time >= 0.0 && std::isfinite(op.fire_time));
  }
  const auto [it, inserted] =
      scenarios_.emplace(scenario.name, std::move(scenario));
  if (!inserted) {
    throw util::PreconditionError("duplicate scenario '" + it->first + "'");
  }
}

const Scenario* ScenarioCatalog::find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

const Scenario& ScenarioCatalog::at(const std::string& name) const {
  const Scenario* scenario = find(name);
  if (scenario == nullptr) {
    std::string known;
    for (const std::string& registered : names()) {
      if (!known.empty()) known += ", ";
      known += registered;
    }
    throw util::PreconditionError(
        "unknown scenario '" + name + "' (known: " + known +
        "; scenarios compose with '+', e.g. flash_crowd+churn_heavy)");
  }
  return *scenario;
}

std::vector<std::string> ScenarioCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, scenario] : scenarios_) out.push_back(name);
  return out;  // std::map iterates sorted
}

Scenario ScenarioCatalog::resolve(const std::string& expression) const {
  struct Part {
    const Scenario* scenario;
    double offset;      ///< seconds; 0 = untimed
    std::string token;  ///< canonical form, e.g. "regional_outage@6h"
  };
  std::vector<Part> parts;
  std::set<std::pair<std::string, double>> seen;
  std::size_t start = 0;
  for (;;) {
    const std::size_t plus = expression.find('+', start);
    const std::size_t end = plus == std::string::npos ? expression.size() : plus;
    const std::string raw = expression.substr(start, end - start);
    const std::string token = trim(raw);
    if (token.empty()) {
      throw util::PreconditionError(
          "bad scenario expression '" + expression + "': empty part '" + raw +
          "' (syntax: name or name+name, parts applied left to right, each "
          "optionally timed with @<number><h|m|s> — e.g. "
          "flash_crowd+churn_heavy, regional_outage@6h+recovery@18h)");
    }
    std::string name = token;
    double offset = 0.0;
    const std::size_t at_pos = token.find('@');
    if (at_pos != std::string::npos) {
      if (token.find('@', at_pos + 1) != std::string::npos) {
        throw util::PreconditionError(
            "bad scenario part '" + token +
            "': more than one '@' (a part takes at most one fire time, "
            "e.g. regional_outage@6h)");
      }
      name = trim(token.substr(0, at_pos));
      if (name.empty()) {
        throw util::PreconditionError(
            "bad scenario part '" + token +
            "': missing scenario name before '@' (syntax: name@<number>"
            "<h|m|s>, e.g. regional_outage@6h)");
      }
      offset = parse_fire_time(trim(token.substr(at_pos + 1)));
    }
    const Scenario& scenario = at(name);
    if (!seen.emplace(name, offset).second) {
      const std::string canonical =
          offset > 0.0 ? name + "@" + format_fire_time(offset) : name;
      throw util::PreconditionError(
          "bad scenario expression '" + expression + "': duplicate part '" +
          canonical +
          "' — repeating a part double-applies its multiplicative ops "
          "(e.g. churn_heavy's arrival scale), so a repeat is only legal "
          "at distinct fire times (churn_heavy@2h+churn_heavy@4h)");
    }
    parts.push_back(
        {&scenario, offset,
         offset > 0.0 ? name + "@" + format_fire_time(offset) : name});
    if (plus == std::string::npos) break;
    start = plus + 1;
  }
  if (parts.size() == 1 && parts.front().offset == 0.0) {
    return *parts.front().scenario;
  }

  Scenario composed;
  composed.description = parts.size() == 1
                             ? "timed:"
                             : "composite (ops apply left to right):";
  for (const Part& part : parts) {
    if (!composed.name.empty()) composed.name += "+";
    composed.name += part.token;
    composed.description += " " + part.token;
    for (ScenarioOp op : part.scenario->ops) {
      // `part@T` shifts the whole part by T: untimed ops fire at T, ops
      // registered with their own fire time keep their relative schedule.
      op.fire_time += part.offset;
      composed.ops.push_back(std::move(op));
    }
  }
  return composed;
}

expr::ExperimentConfig ScenarioCatalog::make_config(
    const std::string& expression, core::StreamingMode mode) const {
  expr::ExperimentConfig config = expr::ExperimentConfig::make_default(mode);
  resolve(expression).apply(config);
  return config;
}

}  // namespace cloudmedia::sweep
