#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/runner.h"
#include "profile/profile.h"
#include "sweep/run_summary.h"
#include "sweep/scenario_catalog.h"
#include "sweep/sweep_runner.h"
#include "tracing.h"

namespace perfbench {

/// The config SweepRunner::run builds for one grid cell: scenario, horizon,
/// overrides, customize, grid point, then the per-cell run seed.
[[nodiscard]] cloudmedia::expr::ExperimentConfig cell_config(
    const cloudmedia::sweep::SweepSpec& spec,
    const cloudmedia::sweep::Scenario& scenario, std::size_t cell);

/// A workload's config: its one-cell profile (perfbench/workloads/<name>.json)
/// at base seed `seed`, exactly as SweepRunner::run builds its only cell.
[[nodiscard]] cloudmedia::expr::ExperimentConfig single_run_config(
    const cloudmedia::profile::Profile& profile, std::uint64_t seed);

/// Empty when every quality sample lies in [0, 1] and arrivals ==
/// departures + final_users (exact on the discrete engine; on the cohort
/// engine within the fuzzer's rounding slack of max(2, arrivals / 1e5)
/// viewers); otherwise says what failed.
[[nodiscard]] std::string check_result(const cloudmedia::expr::ExperimentResult& r);

/// Host times of delivering one sweep into a ResultsStore.
struct DeliveryTimes {
  double push_ms = 0.0;
  double finish_ms = 0.0;
  double finalize_ms = 0.0;
  std::size_t peak_buffered = 0;
};

/// Run `spec` through SweepRunner::run at one worker thread, streaming
/// into a ResultsStore under `base`, then finish and finalize it as
/// tool_sweep does. Returns the finalized rows.
[[nodiscard]] std::vector<cloudmedia::sweep::RunSummary> deliver_sweep(
    cloudmedia::sweep::SweepSpec spec, const std::string& base, DeliveryTimes& times,
    Trace& trace, long parent);

}  // namespace perfbench
