#include "profile/invariants.h"

#include <algorithm>
#include <cmath>

#include "expr/config.h"
#include "expr/runner.h"
#include "sweep/sweep_runner.h"
#include "util/json.h"

namespace cloudmedia::profile {

namespace {

/// The largest (vm, storage) budgets any timeline state of this cell's
/// config can grant: the pre-timeline state, then each timed op applied
/// cumulatively in fire order (mirroring the runner's schedule). Billing
/// admitted under any state must stay under the running maximum.
struct BudgetEnvelope {
  double vm = 0.0;
  double storage = 0.0;
};

BudgetEnvelope budget_envelope(const expr::ExperimentConfig& config) {
  expr::ExperimentConfig baseline = config;
  baseline.timeline.clear();
  BudgetEnvelope cap{baseline.vm_budget_per_hour,
                     baseline.storage_budget_per_hour};
  expr::ExperimentConfig scratch = baseline;
  std::vector<const expr::TimedConfigOp*> ops;
  for (const expr::TimedConfigOp& op : config.timeline) ops.push_back(&op);
  std::stable_sort(ops.begin(), ops.end(),
                   [](const expr::TimedConfigOp* a,
                      const expr::TimedConfigOp* b) {
                     return a->fire_time < b->fire_time;
                   });
  for (const expr::TimedConfigOp* op : ops) {
    op->apply(scratch, baseline);
    cap.vm = std::max(cap.vm, scratch.vm_budget_per_hour);
    cap.storage = std::max(cap.storage, scratch.storage_budget_per_hour);
  }
  // The SLA admits whole-instance rounding of up to one instance per
  // cluster above the vm budget (SlaNegotiator::admit, broker.cc) — the
  // envelope grants billing exactly the allowance admission grants plans.
  // The cluster menus are frozen mid-run, so the allowance is constant.
  for (const core::VmClusterSpec& cluster : config.vm_clusters) {
    cap.vm += cluster.price_per_hour;
  }
  return cap;
}

/// Allow billing to exceed the cap only by floating-point dust.
bool exceeds(double sample, double cap) {
  return sample > cap * (1.0 + 1e-9) + 1e-9;
}

std::string fmt(double v) { return util::format_number(v); }

}  // namespace

std::string InvariantReport::summary() const {
  std::string text;
  for (const InvariantViolation& v : violations) {
    text += "  [" + v.invariant + "] ";
    if (!v.cell.empty()) text += v.cell + ": ";
    text += v.detail + "\n";
  }
  return text;
}

InvariantReport check_profile_invariants(
    const Profile& p, unsigned comparison_threads,
    const sweep::ScenarioCatalog& catalog) {
  InvariantReport report;

  sweep::SweepSpec spec = sweep::SweepSpec::from_profile(p);
  spec.threads = 1;
  spec.keep_results = true;  // the per-cell checks need the series
  const sweep::SweepResult single = sweep::SweepRunner::run(spec, catalog);
  report.cells = single.runs.size();

  const sweep::Scenario scenario = catalog.resolve(p.scenario);
  const std::vector<std::size_t> cells =
      sweep::SweepRunner::shard_cells(spec.grid.num_points(), spec.shard);

  for (std::size_t slot = 0; slot < single.runs.size(); ++slot) {
    const sweep::GridPoint point = spec.grid.point(cells[slot]);
    const std::string cell = point.coords.empty() ? "(single run)"
                                                  : point.label();
    const expr::ExperimentResult& run = single.results[slot];

    // --- conservation: every viewer who arrived either left or is still
    // watching. Exact for the discrete engine; the cohort engine rounds
    // accumulated fluid mass, so give it a couple of viewers plus 10 ppm
    // of slack for the float accumulation.
    const long arrivals = run.metrics.counters.arrivals;
    const long departures = run.metrics.counters.departures;
    const long drift = arrivals - departures - run.final_users;
    const long tolerance =
        run.used_cohort_engine ? std::max<long>(2, arrivals / 100000) : 0;
    if (std::abs(drift) > tolerance) {
      report.violations.push_back(
          {"conservation", cell,
           "arrivals " + std::to_string(arrivals) + " != departures " +
               std::to_string(departures) + " + final_users " +
               std::to_string(run.final_users) + " (drift " +
               std::to_string(drift) + ", tolerance " +
               std::to_string(tolerance) + ")"});
    }

    // --- budget: bound billed $/h by the max budget any timeline state of
    // this cell's config grants.
    const BudgetEnvelope cap = budget_envelope(
        sweep::SweepRunner::cell_config(spec, scenario, point));
    for (double sample : run.metrics.vm_cost_rate.values()) {
      if (exceeds(sample, cap.vm)) {
        report.violations.push_back(
            {"budget", cell,
             "vm_cost_rate sample " + fmt(sample) + " $/h exceeds the " +
                 fmt(cap.vm) + " $/h budget envelope"});
        break;
      }
    }
    for (double sample : run.metrics.storage_cost_rate.values()) {
      if (exceeds(sample, cap.storage)) {
        report.violations.push_back(
            {"budget", cell,
             "storage_cost_rate sample " + fmt(sample) +
                 " $/h exceeds the " + fmt(cap.storage) +
                 " $/h budget envelope"});
        break;
      }
    }

    // --- quality: a fraction of smooth playback, so finite and in [0, 1].
    for (double sample : run.metrics.quality.values()) {
      if (!std::isfinite(sample) || sample < -1e-12 ||
          sample > 1.0 + 1e-12) {
        report.violations.push_back(
            {"quality", cell,
             "quality sample " + fmt(sample) + " outside [0, 1]"});
        break;
      }
    }
  }

  // --- determinism: the N-thread run must serialize byte-identically to
  // the 1-thread run. Series retention is irrelevant to the serialized
  // forms, so the second pass skips it.
  sweep::SweepSpec parallel = sweep::SweepSpec::from_profile(p);
  parallel.threads = comparison_threads;
  const sweep::SweepResult threaded = sweep::SweepRunner::run(parallel, catalog);
  if (single.to_csv() != threaded.to_csv() ||
      single.to_json().dump(2) != threaded.to_json().dump(2)) {
    report.violations.push_back(
        {"determinism", "",
         "1-thread and " +
             (comparison_threads == 0
                  ? std::string("hardware-thread")
                  : std::to_string(comparison_threads) + "-thread") +
             " runs serialize differently"});
  }

  return report;
}

}  // namespace cloudmedia::profile
