#pragma once

#include <cstddef>
#include <optional>
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

/// How the provider splits its global budget across regional controllers.
enum class BudgetSplit {
  /// Every region gets the full global budget (budgets are caps, not
  /// spending — the baseline for "no coordination").
  kUncoordinated,
  /// Budget proportional to the region's audience share.
  kProportional,
};

[[nodiscard]] std::string to_string(BudgetSplit split);

struct FederationConfig {
  /// Template experiment: workload scale, VoD model, cluster menus and
  /// budgets of the *global* service. Each region runs a copy with its
  /// share of the arrival rate, its shifted diurnal pattern, its price
  /// multipliers, and its budget slice.
  expr::ExperimentConfig base;
  std::vector<RegionSpec> regions;
  BudgetSplit budget_split = BudgetSplit::kProportional;

  /// The paper-shaped default federation: three regions (Asia / Europe /
  /// Americas) with staggered time zones and a 45/30/25 audience split.
  [[nodiscard]] static FederationConfig make_default(core::StreamingMode mode);

  /// Index of the region called `name` in `regions`, if there is one.
  [[nodiscard]] std::optional<std::size_t> region_index(
      const std::string& name) const;

  void validate() const;
};

struct RegionResult {
  RegionSpec spec;
  expr::ExperimentConfig config;  ///< the regional config actually run
  expr::ExperimentResult result;
};

/// Aggregate view of a federated run.
struct FederationResult {
  std::vector<RegionResult> regions;
  double measure_start = 0.0;
  double measure_end = 0.0;

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

/// Run every region's full stack on its own simulator (regions share no
/// infrastructure in this model — they interact only through the budget
/// split and the aggregate accounting).
class FederationRunner {
 public:
  [[nodiscard]] static FederationResult run(const FederationConfig& config);

  /// The regional config derived from (base, region, split) — exposed so
  /// tests can check the derivation without paying for a simulation.
  [[nodiscard]] static expr::ExperimentConfig regional_config(
      const FederationConfig& config, std::size_t region_index);
};

}  // namespace cloudmedia::geo
