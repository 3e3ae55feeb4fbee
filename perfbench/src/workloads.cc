#include "workloads.h"

#include <algorithm>
#include <cstdlib>

#include "store/results_store.h"
#include "sweep/param_grid.h"
#include "util/check.h"

namespace perfbench {

namespace cm = cloudmedia;

cm::expr::ExperimentConfig cell_config(const cm::sweep::SweepSpec& spec,
                                       const cm::sweep::Scenario& scenario,
                                       std::size_t cell) {
  const cm::sweep::GridPoint point = spec.grid.point(cell);
  cm::expr::ExperimentConfig config =
      cm::expr::ExperimentConfig::make_default(cm::core::StreamingMode::kClientServer);
  scenario.apply(config);
  config.warmup_hours = spec.warmup_hours;
  config.measure_hours = spec.measure_hours;
  for (const auto& [name, value] : spec.overrides) {
    cm::sweep::apply_parameter(config, name, value);
  }
  if (spec.customize) spec.customize(config);
  for (const auto& [name, value] : point.coords) {
    cm::sweep::apply_parameter(config, name, value);
  }
  config.seed = cm::sweep::SweepRunner::run_seed(spec.base_seed, point);
  return config;
}

cm::expr::ExperimentConfig single_run_config(const cm::profile::Profile& profile,
                                             std::uint64_t seed) {
  cm::sweep::SweepSpec spec = cm::sweep::SweepSpec::from_profile(profile);
  CM_EXPECTS(spec.grid.num_points() == 1);
  spec.base_seed = seed;
  return cell_config(spec, cm::sweep::ScenarioCatalog::global().resolve(spec.scenario), 0);
}

std::string check_result(const cm::expr::ExperimentResult& r) {
  for (const double q : r.metrics.quality.values()) {
    if (!(q >= 0.0 && q <= 1.0)) return "quality sample outside [0, 1]";
  }
  const long arrivals = r.metrics.counters.arrivals;
  const long drift = arrivals - r.metrics.counters.departures - r.final_users;
  const long tolerance = r.used_cohort_engine ? std::max<long>(2, arrivals / 100000) : 0;
  if (std::labs(drift) > tolerance) {
    return "arrivals != departures + final_users (drift " + std::to_string(drift) + ")";
  }
  return {};
}

std::vector<cm::sweep::RunSummary> deliver_sweep(cm::sweep::SweepSpec spec,
                                                 const std::string& base,
                                                 DeliveryTimes& times, Trace& trace,
                                                 long parent) {
  spec.threads = 1;
  cm::store::ResultsStore store({.base = base}, spec);
  spec.sink = [&](std::size_t cell, cm::sweep::RunSummary row) {
    const long span = trace.open("store.push", parent);
    store.push(cell, std::move(row));
    times.push_ms += trace.close(span);
  };
  const long sweep_span = trace.open("sweep.run", parent);
  (void)cm::sweep::SweepRunner::run(spec);
  trace.close(sweep_span);

  long span = trace.open("store.finish", parent);
  store.finish();
  times.finish_ms += trace.close(span);
  times.peak_buffered = std::max(times.peak_buffered, store.peak_buffered());
  span = trace.open("store.finalize", parent);
  cm::sweep::SweepResult result = store.finalize();
  times.finalize_ms += trace.close(span);
  return std::move(result.runs);
}

}  // namespace perfbench
