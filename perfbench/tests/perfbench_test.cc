// Tests of the benchmark's own code: the stepped wiring and the sweep
// delivery reproduce ExperimentRunner::run and catch a perturbed seed, and
// the percentile and segment helpers follow their rules.

#include <gtest/gtest.h>

#include "expr/runner.h"
#include "profile/profile.h"
#include "stats.h"
#include "stepped.h"
#include "sweep/goldens.h"
#include "sweep/sweep_runner.h"
#include "sweep/run_summary.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace cm = cloudmedia;

cm::expr::ExperimentConfig small_config(const char* engine) {
  cm::profile::Profile profile;
  profile.scenario = "flash_crowd";
  profile.warmup_hours = 0.25;
  profile.measure_hours = 2.0;
  profile.overrides = {{"mode", "p2p"}, {"engine", engine}, {"arrival", "0.5"}};
  return single_run_config(profile, 7);
}

void expect_stepped_matches_runner(const cm::expr::ExperimentConfig& config) {
  const cm::expr::ExperimentResult reference = cm::expr::ExperimentRunner::run(config);
  Trace trace;
  const SteppedRun stepped = run_stepped(config, trace, trace.open("run"));
  EXPECT_EQ(fidelity_mismatch(stepped.result, reference), "");
  EXPECT_EQ(cm::sweep::RunSummary::from_result("s", {}, config.seed, stepped.result)
                .to_json()
                .dump(-1),
            cm::sweep::RunSummary::from_result("s", {}, config.seed, reference)
                .to_json()
                .dump(-1));
  EXPECT_EQ(stepped.layers.step_ms.size(), static_cast<std::size_t>(kTraceSteps));
  EXPECT_FALSE(stepped.layers.reports.empty());
  EXPECT_EQ(check_result(stepped.result), "");
}

TEST(Stepped, DiscreteWiringEqualsRunner) {
  expect_stepped_matches_runner(small_config("discrete"));
}

TEST(Stepped, CohortWiringEqualsRunner) {
  expect_stepped_matches_runner(small_config("cohort"));
}

// A timed scenario op (budget cut, then recovery) goes through the
// stepped run's own timeline scheduling and envelope headroom.
TEST(Stepped, TimelineWiringEqualsRunner) {
  const cm::sweep::GoldenPreset& preset = cm::sweep::golden_preset("outage_transient");
  const cm::sweep::Scenario scenario =
      cm::sweep::ScenarioCatalog::global().resolve(preset.spec.scenario);
  const cm::expr::ExperimentConfig config = cell_config(preset.spec, scenario, 0);
  ASSERT_FALSE(config.timeline.empty());
  expect_stepped_matches_runner(config);
}

TEST(Stepped, FidelityCheckFlagsADifferentSeed) {
  cm::expr::ExperimentConfig config = small_config("discrete");
  const cm::expr::ExperimentResult reference = cm::expr::ExperimentRunner::run(config);
  config.seed += 1;
  Trace trace;
  const SteppedRun stepped = run_stepped(config, trace, -1);
  EXPECT_NE(fidelity_mismatch(stepped.result, reference), "");
}

// The workload's config is its one-cell profile's only sweep cell: the
// same cell through SweepRunner::run (and a ResultsStore) gives the
// runner's row, and a perturbed base seed does not.
TEST(Sweep, DeliveredCellEqualsRunnerAndFlagsAPerturbedSeed) {
  cm::profile::Profile profile;
  profile.scenario = "flash_crowd";
  profile.warmup_hours = 0.25;
  profile.measure_hours = 1.0;
  profile.overrides = {{"mode", "p2p"}, {"engine", "discrete"}, {"arrival", "0.5"}};
  const cm::expr::ExperimentConfig config = single_run_config(profile, 11);
  const std::string expected =
      cm::sweep::RunSummary::from_result(profile.scenario, {}, config.seed,
                                         cm::expr::ExperimentRunner::run(config))
          .to_json()
          .dump(-1);
  cm::sweep::SweepSpec spec = cm::sweep::SweepSpec::from_profile(profile);
  Trace trace;
  DeliveryTimes times;
  const std::string base = ::testing::TempDir() + "perfbench_sweep";
  spec.base_seed = 11;
  const std::vector<cm::sweep::RunSummary> rows = deliver_sweep(spec, base, times, trace, -1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.front().to_json().dump(-1), expected);
  EXPECT_EQ(times.peak_buffered, 1u);

  spec.base_seed = 12;
  const std::vector<cm::sweep::RunSummary> perturbed =
      deliver_sweep(spec, base, times, trace, -1);
  ASSERT_EQ(perturbed.size(), 1u);
  EXPECT_NE(perturbed.front().to_json().dump(-1), expected);
}

// Every reported percentile leaves at least 10 samples beyond it: p80 and
// p90 of the 120 steps (cell_ms_p80, vod.step_ms_p90).
TEST(Stats, ReportedPercentilesLeaveTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(120, 80.0), 24u);
  EXPECT_EQ(samples_beyond(120, 90.0), 12u);
  EXPECT_EQ(samples_beyond(120, 95.0), 6u);  // too few: not reported
  EXPECT_EQ(samples_beyond(54, 80.0), 10u);
  EXPECT_EQ(samples_beyond(54, 90.0), 5u);
  EXPECT_EQ(samples_beyond(0, 80.0), 0u);
}

TEST(Stats, RankPercentileAndMedian) {
  std::vector<double> v;
  for (int i = 1; i <= 54; ++i) v.push_back(55 - i);  // 54 .. 1, unsorted
  EXPECT_EQ(rank_percentile(v, 80.0), 44.0);  // ten values (45..54) beyond
  EXPECT_EQ(rank_percentile(v, 50.0), 27.0);
  EXPECT_EQ(rank_percentile(v, 100.0), 54.0);
  EXPECT_EQ(rank_percentile({}, 50.0), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, SegmentMinimaTakeEachSegmentsFastestRepetition) {
  const std::vector<double> minima = segment_minima({{3.0, 1.0, 5.0}, {2.0, 4.0, 6.0}});
  EXPECT_EQ(minima, (std::vector<double>{2.0, 1.0, 5.0}));
  EXPECT_EQ(sum(minima), 8.0);
  EXPECT_TRUE(segment_minima({}).empty());
  EXPECT_THROW((void)segment_minima({{1.0, 2.0}, {1.0}}), std::runtime_error);
}

}  // namespace
}  // namespace perfbench
