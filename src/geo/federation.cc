#include "geo/federation.h"

#include <algorithm>

#include "util/check.h"

namespace cloudmedia::geo {

void RegionSpec::validate() const {
  CM_EXPECTS(!name.empty());
  CM_EXPECTS(audience_share > 0.0 && audience_share <= 1.0);
  CM_EXPECTS(vm_price_multiplier > 0.0);
  CM_EXPECTS(storage_price_multiplier > 0.0);
}

const std::vector<RegionSpec>& default_regions() {
  static const std::vector<RegionSpec> regions = {
      {"asia", 0.0, 0.45, 1.0, 1.0},
      {"europe", -7.0, 0.30, 1.1, 1.1},
      {"americas", -15.0, 0.25, 1.05, 1.05},
  };
  return regions;
}

const RegionSpec* find_region(const std::string& name) {
  for (const RegionSpec& region : default_regions()) {
    if (region.name == name) return &region;
  }
  return nullptr;
}

void apply_region(expr::ExperimentConfig& config, const RegionSpec& region) {
  region.validate();
  config.workload.total_arrival_rate *= region.audience_share;
  // A region `utc_offset` hours east of the reference hits its local noon
  // `utc_offset` hours *earlier* in reference time.
  config.workload.diurnal =
      config.workload.diurnal.shifted(-region.utc_offset_hours);
  for (core::VmClusterSpec& cluster : config.vm_clusters) {
    cluster.price_per_hour *= region.vm_price_multiplier;
  }
  for (core::NfsClusterSpec& cluster : config.nfs_clusters) {
    cluster.price_per_gb_hour *= region.storage_price_multiplier;
  }
  config.vm_budget_per_hour *= region.audience_share;
  config.storage_budget_per_hour *= region.audience_share;
}

util::TimeSeries FederationResult::global_cost_series() const {
  CM_EXPECTS(!regions.empty());
  const double measure_start = regions.front().result.measure_start;
  const double measure_end = regions.front().result.measure_end;
  util::TimeSeries global;
  for (double t = measure_start; t + 3600.0 <= measure_end + 1e-9;
       t += 3600.0) {
    double sum = 0.0;
    for (const RegionResult& region : regions) {
      sum += region.result.metrics.vm_cost_rate.mean_over(t, t + 3600.0);
    }
    global.add(t, sum);
  }
  return global;
}

double FederationResult::global_mean_cost() const {
  double sum = 0.0;
  for (const RegionResult& region : regions) {
    sum += region.result.mean_vm_cost_rate();
  }
  return sum;
}

double FederationResult::global_peak_cost() const {
  return global_cost_series().max_value();
}

double FederationResult::sum_of_regional_peaks() const {
  CM_EXPECTS(!regions.empty());
  const double measure_start = regions.front().result.measure_start;
  double sum = 0.0;
  for (const RegionResult& region : regions) {
    const util::TimeSeries hourly =
        region.result.metrics.vm_cost_rate.resample(measure_start, 3600.0);
    sum += hourly.max_value();
  }
  return sum;
}

double FederationResult::multiplexing_gain() const {
  const double peak = global_peak_cost();
  return peak > 0.0 ? sum_of_regional_peaks() / peak : 1.0;
}

double FederationResult::min_quality() const {
  double worst = 1.0;
  for (const RegionResult& region : regions) {
    worst = std::min(worst, region.result.mean_quality());
  }
  return worst;
}

double FederationResult::weighted_quality() const {
  double acc = 0.0;
  for (const RegionResult& region : regions) {
    acc += region.spec.audience_share * region.result.mean_quality();
  }
  return acc;
}

}  // namespace cloudmedia::geo
