// Tests for the geo-distributed federation (src/geo) — the paper's ongoing
// work of "expanding to cloud systems spanning different geographic
// locations" (Sec. VII).

#include <cmath>

#include <gtest/gtest.h>

#include "geo/federation.h"
#include "sweep/sweep_runner.h"
#include "util/check.h"

namespace cloudmedia {
namespace {

// A tiny three-region federation: the `region` axis of a P2P sweep over 4
// channels at 0.25 users/s (global), each region a cell with its share.
sweep::SweepSpec tiny_federation(double measure_hours) {
  sweep::SweepSpec spec;
  spec.grid.add_axis("region", {"asia", "europe", "americas"});
  spec.overrides = {{"mode", "p2p"}, {"channels", "4"}, {"arrival", "0.25"}};
  spec.base_seed = 7;
  spec.warmup_hours = 1.0;
  spec.measure_hours = measure_hours;
  spec.keep_results = true;
  return spec;
}

geo::FederationResult federate(const sweep::SweepResult& result) {
  geo::FederationResult out;
  for (std::size_t k = 0; k < result.runs.size(); ++k) {
    const geo::RegionSpec* region =
        geo::find_region(result.runs[k].point.coords.back().second);
    if (region != nullptr) out.regions.push_back({*region, result.results[k]});
  }
  return out;
}

TEST(RegionSpec, ValidationCatchesBadRegions) {
  geo::RegionSpec region{"", 0.0, 0.5, 1.0, 1.0};
  EXPECT_THROW(region.validate(), util::PreconditionError);
  region = {"x", 0.0, 0.0, 1.0, 1.0};
  EXPECT_THROW(region.validate(), util::PreconditionError);
  region = {"x", 0.0, 0.5, 0.0, 1.0};
  EXPECT_THROW(region.validate(), util::PreconditionError);
  region = {"x", 0.0, 0.5, 1.0, 1.0};
  EXPECT_NO_THROW(region.validate());
}

TEST(DefaultRegions, HasThreeStaggeredRegions) {
  const std::vector<geo::RegionSpec>& regions = geo::default_regions();
  ASSERT_EQ(regions.size(), 3u);
  double share = 0.0;
  for (const geo::RegionSpec& region : regions) share += region.audience_share;
  EXPECT_NEAR(share, 1.0, 1e-12);
  // Offsets differ so the diurnal peaks stagger.
  EXPECT_NE(regions[0].utc_offset_hours, regions[1].utc_offset_hours);
  EXPECT_NE(regions[1].utc_offset_hours, regions[2].utc_offset_hours);
  for (const geo::RegionSpec& region : regions) {
    EXPECT_EQ(geo::find_region(region.name), &region);
  }
  EXPECT_EQ(geo::find_region("atlantis"), nullptr);
}

TEST(RegionalConfig, ScalesArrivalsAndPricesAndBudgets) {
  const expr::ExperimentConfig base =
      expr::ExperimentConfig::make_default(core::StreamingMode::kP2p);
  const geo::RegionSpec region{"west", -8.0, 0.4, 1.5, 2.0};
  expr::ExperimentConfig west = base;
  geo::apply_region(west, region);

  EXPECT_NEAR(west.workload.total_arrival_rate,
              base.workload.total_arrival_rate * 0.4, 1e-12);
  EXPECT_NEAR(west.vm_budget_per_hour, base.vm_budget_per_hour * 0.4, 1e-12);
  EXPECT_NEAR(west.storage_budget_per_hour,
              base.storage_budget_per_hour * 0.4, 1e-12);
  for (std::size_t v = 0; v < west.vm_clusters.size(); ++v) {
    EXPECT_NEAR(west.vm_clusters[v].price_per_hour,
                base.vm_clusters[v].price_per_hour * 1.5, 1e-12);
  }
  for (std::size_t f = 0; f < west.nfs_clusters.size(); ++f) {
    EXPECT_NEAR(west.nfs_clusters[f].price_per_gb_hour,
                base.nfs_clusters[f].price_per_gb_hour * 2.0, 1e-12);
  }
  // Seeding is the sweep's job (SweepRunner::cell_config), not the region's.
  EXPECT_EQ(west.seed, base.seed);
}

TEST(RegionalConfig, DiurnalPatternIsShiftedByUtcOffset) {
  expr::ExperimentConfig ref =
      expr::ExperimentConfig::make_default(core::StreamingMode::kP2p);
  expr::ExperimentConfig west = ref;
  geo::apply_region(ref, {"ref", 0.0, 0.5, 1.0, 1.0});
  geo::apply_region(west, {"west7", -7.0, 0.5, 1.0, 1.0});
  // The west region sees the reference pattern 7 hours later.
  for (double hour : {0.0, 6.0, 12.5, 20.5}) {
    EXPECT_NEAR(west.workload.diurnal.multiplier((hour + 7.0) * 3600.0),
                ref.workload.diurnal.multiplier(hour * 3600.0), 1e-9)
        << "hour " << hour;
  }
}

TEST(DiurnalShift, ShiftIsPeriodicAndInvertible) {
  const workload::DiurnalPattern base = workload::DiurnalPattern::paper_default();
  const workload::DiurnalPattern round_trip = base.shifted(31.0).shifted(-7.0);
  for (double hour = 0.0; hour < 24.0; hour += 0.5) {
    EXPECT_NEAR(round_trip.multiplier(hour * 3600.0),
                base.multiplier(hour * 3600.0), 1e-9);
  }
}

TEST(FederationRun, EndToEndAggregatesAreConsistent) {
  const sweep::SweepResult cells =
      sweep::SweepRunner::run(tiny_federation(4.0));
  const geo::FederationResult result = federate(cells);

  ASSERT_EQ(result.regions.size(), geo::default_regions().size());
  for (const geo::RegionResult& region : result.regions) {
    EXPECT_GT(region.result.mean_quality(), 0.5) << region.spec.name;
  }

  // Global mean = Σ regional means; peak ≤ Σ regional peaks.
  double sum_means = 0.0;
  for (const geo::RegionResult& region : result.regions) {
    sum_means += region.result.mean_vm_cost_rate();
  }
  EXPECT_NEAR(result.global_mean_cost(), sum_means, 1e-9);
  EXPECT_LE(result.global_peak_cost(), result.sum_of_regional_peaks() + 1e-9);
  EXPECT_GE(result.multiplexing_gain(), 1.0 - 1e-12);

  // Quality summaries are proper averages/minima.
  EXPECT_LE(result.min_quality(), result.weighted_quality() + 1e-12);
  EXPECT_LE(result.weighted_quality(), 1.0);

  // Cost series spans the measurement window hourly.
  const expr::ExperimentResult& first = result.regions.front().result;
  const util::TimeSeries series = result.global_cost_series();
  EXPECT_EQ(series.size(),
            static_cast<std::size_t>(std::lround(
                (first.measure_end - first.measure_start) / 3600.0)));
}

TEST(FederationRun, DeterministicForAGivenSeed) {
  // Regions run as parallel sweep cells: the aggregates must not depend on
  // the thread count any more than on the run.
  sweep::SweepSpec spec = tiny_federation(2.0);
  spec.threads = 1;
  const sweep::SweepResult serial = sweep::SweepRunner::run(spec);
  spec.threads = 2;
  const sweep::SweepResult parallel = sweep::SweepRunner::run(spec);
  const geo::FederationResult a = federate(serial);
  const geo::FederationResult b = federate(parallel);
  ASSERT_EQ(a.regions.size(), 3u);
  ASSERT_EQ(b.regions.size(), 3u);
  EXPECT_EQ(a.global_mean_cost(), b.global_mean_cost());
  EXPECT_EQ(a.global_peak_cost(), b.global_peak_cost());
  EXPECT_EQ(a.sum_of_regional_peaks(), b.sum_of_regional_peaks());
  EXPECT_EQ(a.multiplexing_gain(), b.multiplexing_gain());
  EXPECT_EQ(a.min_quality(), b.min_quality());
  EXPECT_EQ(a.weighted_quality(), b.weighted_quality());
}

}  // namespace
}  // namespace cloudmedia
