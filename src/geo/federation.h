#pragma once

#include <string>
#include <vector>

#include "expr/config.h"
#include "expr/runner.h"
#include "util/stats.h"

namespace cloudmedia::geo {

/// One geographic deployment region of a federated CloudMedia service —
/// the paper's stated ongoing work ("we are expanding to cloud systems
/// spanning different geographic locations", Sec. VII).
///
/// A region is a full CloudMedia stack (cloud + swarm + controller) serving
/// the slice of the global audience whose local time drives its diurnal
/// pattern. Regional clouds may price differently (spot/zone economics).
/// Regions run as cells of a sweep's `region` axis (sweep/param_grid.cc).
struct RegionSpec {
  std::string name;
  /// Shift of the diurnal pattern relative to the reference region, in
  /// hours. A region 7 hours west sees the same noon/evening crowds 7
  /// hours later in reference time.
  double utc_offset_hours = 0.0;
  /// Fraction of the global external arrival rate originating here.
  double audience_share = 0.0;
  /// Regional price multipliers applied to the cluster menus.
  double vm_price_multiplier = 1.0;
  double storage_price_multiplier = 1.0;

  void validate() const;
};

/// The paper-shaped default federation: three regions (Asia / Europe /
/// Americas) with staggered time zones and a 45/30/25 audience split.
[[nodiscard]] const std::vector<RegionSpec>& default_regions();

/// The region of default_regions() called `name`, or nullptr.
[[nodiscard]] const RegionSpec* find_region(const std::string& name);

/// Reshape `config` (the global service) into one region's stack: its
/// share of the arrival rate, its shifted diurnal clock, its price
/// multipliers, and its audience-proportional slice of the VM and storage
/// budgets. The seed is left alone; the sweep seeds every cell.
void apply_region(expr::ExperimentConfig& config, const RegionSpec& region);

/// One region's run, borrowed from the sweep result that owns it.
struct RegionResult {
  RegionSpec spec;
  const expr::ExperimentResult& result;
};

/// Aggregate view of a federated run: its regions share no infrastructure
/// and interact only through the budget split and this accounting. The
/// measurement window is the first region's.
struct FederationResult {
  std::vector<RegionResult> regions;

  /// Hourly global VM bill: sum of regional vm_cost_rate means per hour.
  [[nodiscard]] util::TimeSeries global_cost_series() const;
  /// Σ over regions of the mean regional bill ($/h).
  [[nodiscard]] double global_mean_cost() const;
  /// Peak of the global hourly bill ($/h).
  [[nodiscard]] double global_peak_cost() const;
  /// Σ over regions of each region's own peak hourly bill — what the
  /// provider would need to stand ready for without time-zone multiplexing.
  [[nodiscard]] double sum_of_regional_peaks() const;
  /// sum_of_regional_peaks / global_peak_cost (≥ 1): how much peak capacity
  /// the staggered time zones save a provider with pooled resources.
  [[nodiscard]] double multiplexing_gain() const;
  /// Worst regional mean streaming quality.
  [[nodiscard]] double min_quality() const;
  /// Mean streaming quality weighted by audience share.
  [[nodiscard]] double weighted_quality() const;
};

}  // namespace cloudmedia::geo
