#include "geo/federation.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cloudmedia::geo {

void RegionSpec::validate() const {
  CM_EXPECTS(!name.empty());
  CM_EXPECTS(audience_share > 0.0 && audience_share <= 1.0);
  CM_EXPECTS(vm_price_multiplier > 0.0);
  CM_EXPECTS(storage_price_multiplier > 0.0);
}

std::string to_string(BudgetSplit split) {
  switch (split) {
    case BudgetSplit::kUncoordinated: return "uncoordinated";
    case BudgetSplit::kProportional: return "proportional";
  }
  return "?";
}

FederationConfig FederationConfig::make_default(core::StreamingMode mode) {
  FederationConfig cfg;
  cfg.base = expr::ExperimentConfig::make_default(mode);
  cfg.regions = {
      {"asia", 0.0, 0.45, 1.0, 1.0},
      {"europe", -7.0, 0.30, 1.1, 1.1},
      {"americas", -15.0, 0.25, 1.05, 1.05},
  };
  return cfg;
}

std::optional<std::size_t> FederationConfig::region_index(
    const std::string& name) const {
  for (std::size_t k = 0; k < regions.size(); ++k) {
    if (regions[k].name == name) return k;
  }
  return std::nullopt;
}

void FederationConfig::validate() const {
  base.validate();
  CM_EXPECTS(!regions.empty());
  double total_share = 0.0;
  for (const RegionSpec& region : regions) {
    region.validate();
    total_share += region.audience_share;
  }
  // Shares describe how the one global audience is partitioned.
  CM_EXPECTS(std::abs(total_share - 1.0) < 1e-9);
}

expr::ExperimentConfig FederationRunner::regional_config(
    const FederationConfig& config, std::size_t region_index) {
  CM_EXPECTS(region_index < config.regions.size());
  const RegionSpec& region = config.regions[region_index];

  expr::ExperimentConfig out = config.base;
  out.workload.total_arrival_rate *= region.audience_share;
  // A region `utc_offset` hours east of the reference hits its local noon
  // `utc_offset` hours *earlier* in reference time.
  out.workload.diurnal =
      config.base.workload.diurnal.shifted(-region.utc_offset_hours);
  for (core::VmClusterSpec& cluster : out.vm_clusters) {
    cluster.price_per_hour *= region.vm_price_multiplier;
  }
  for (core::NfsClusterSpec& cluster : out.nfs_clusters) {
    cluster.price_per_gb_hour *= region.storage_price_multiplier;
  }
  if (config.budget_split == BudgetSplit::kProportional) {
    out.vm_budget_per_hour *= region.audience_share;
    out.storage_budget_per_hour *= region.audience_share;
  }
  // Independent populations per region, deterministic in the base seed.
  out.seed = config.base.seed + 1000003 * (region_index + 1);
  return out;
}

FederationResult FederationRunner::run(const FederationConfig& config) {
  config.validate();

  FederationResult out;
  out.regions.reserve(config.regions.size());
  for (std::size_t k = 0; k < config.regions.size(); ++k) {
    RegionResult region;
    region.spec = config.regions[k];
    region.config = regional_config(config, k);
    region.result = expr::ExperimentRunner::run(region.config);
    out.regions.push_back(std::move(region));
  }
  out.measure_start = out.regions.front().result.measure_start;
  out.measure_end = out.regions.front().result.measure_end;
  return out;
}

util::TimeSeries FederationResult::global_cost_series() const {
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
