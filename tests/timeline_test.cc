// Scheduled system-event timeline (PR 6): fire-time parsing, `@` scenario
// composition, the config-mutation hook in the experiment loop, and the
// invariant that timed ops never reach the workload seed hash — a timeline
// replays the byte-identical viewer population of the plain run.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "expr/config.h"
#include "expr/runner.h"
#include "sweep/goldens.h"
#include "sweep/param_grid.h"
#include "sweep/scenario_catalog.h"
#include "sweep/sweep_runner.h"
#include "testing/seeds.h"
#include "util/check.h"

namespace cloudmedia::sweep {
namespace {

// ------------------------------------------------------ fire-time syntax

TEST(FireTime, ParseRoundTripsThroughEveryUnit) {
  EXPECT_DOUBLE_EQ(parse_fire_time("6h"), 6.0 * 3600.0);
  EXPECT_DOUBLE_EQ(parse_fire_time("30m"), 30.0 * 60.0);
  EXPECT_DOUBLE_EQ(parse_fire_time("90s"), 90.0);
  EXPECT_DOUBLE_EQ(parse_fire_time("0.5h"), 1800.0);
  EXPECT_DOUBLE_EQ(parse_fire_time("0s"), 0.0);

  EXPECT_EQ(format_fire_time(6.0 * 3600.0), "6h");
  EXPECT_EQ(format_fire_time(45.0 * 60.0), "45m");
  EXPECT_EQ(format_fire_time(90.0), "90s");
  for (const double seconds : {21600.0, 2700.0, 90.0, 1800.0, 9000.0}) {
    EXPECT_DOUBLE_EQ(parse_fire_time(format_fire_time(seconds)), seconds);
  }
}

TEST(FireTime, RejectsJunkWithTeachingErrors) {
  const ScenarioCatalog& catalog = ScenarioCatalog::global();
  // Direct parser junk.
  EXPECT_THROW((void)parse_fire_time(""), util::PreconditionError);
  EXPECT_THROW((void)parse_fire_time("-1h"), util::PreconditionError);
  EXPECT_THROW((void)parse_fire_time("6parsecs"), util::PreconditionError);
  EXPECT_THROW((void)parse_fire_time("6"), util::PreconditionError);
  EXPECT_THROW((void)parse_fire_time("h"), util::PreconditionError);
  EXPECT_THROW((void)parse_fire_time("nanh"), util::PreconditionError);
  // The same junk through resolve(), attached to a real scenario.
  EXPECT_THROW((void)catalog.resolve("flash_crowd@"), util::PreconditionError);
  EXPECT_THROW((void)catalog.resolve("flash_crowd@-1h"),
               util::PreconditionError);
  EXPECT_THROW((void)catalog.resolve("flash_crowd@6parsecs"),
               util::PreconditionError);
  EXPECT_THROW((void)catalog.resolve("flash_crowd@6h@7h"),
               util::PreconditionError);
  EXPECT_THROW((void)catalog.resolve("@6h"), util::PreconditionError);
  // The error must teach the syntax, not just refuse.
  try {
    (void)catalog.resolve("flash_crowd@6parsecs");
    FAIL() << "expected PreconditionError";
  } catch (const util::PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("<number><unit>"), std::string::npos);
    EXPECT_NE(what.find("regional_outage@6h"), std::string::npos);
  }
}

// ----------------------------------------------------- resolve() hygiene

TEST(Timeline, ResolveTrimsWhitespaceAroundPartsAndFireTimes) {
  const ScenarioCatalog& catalog = ScenarioCatalog::global();
  // The PR 5 resolver treated "flash_crowd " as an unknown scenario whose
  // trailing space was invisible in the error. Now padding is trimmed.
  const Scenario spaced = catalog.resolve("flash_crowd + churn_heavy");
  const Scenario tight = catalog.resolve("flash_crowd+churn_heavy");
  EXPECT_EQ(spaced.name, tight.name);
  EXPECT_EQ(spaced.ops.size(), tight.ops.size());
  EXPECT_EQ(catalog.resolve("  flash_crowd  ").name, "flash_crowd");
  EXPECT_EQ(catalog.resolve("regional_outage @ 6h").name,
            "regional_outage@6h");
}

TEST(Timeline, UnknownPartErrorQuotesTheName) {
  try {
    (void)ScenarioCatalog::global().resolve("flash_crowd+no_such_part");
    FAIL() << "expected PreconditionError";
  } catch (const util::PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("'no_such_part'"),
              std::string::npos);
  }
}

TEST(Timeline, DuplicatePartsRejectedUnlessFireTimesDiffer) {
  const ScenarioCatalog& catalog = ScenarioCatalog::global();
  // Pinned semantics: an exact repeat (same part, same fire time) would
  // silently double-apply multiplicative ops, so it is rejected...
  EXPECT_THROW((void)catalog.resolve("churn_heavy+churn_heavy"),
               util::PreconditionError);
  EXPECT_THROW((void)catalog.resolve("churn_heavy@2h+churn_heavy@2h"),
               util::PreconditionError);
  EXPECT_THROW((void)catalog.resolve("churn_heavy + churn_heavy"),
               util::PreconditionError);
  try {
    (void)catalog.resolve("churn_heavy+churn_heavy");
    FAIL() << "expected PreconditionError";
  } catch (const util::PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("duplicate part"), std::string::npos);
    EXPECT_NE(what.find("distinct fire times"), std::string::npos);
  }
  // ...while a repeat at distinct fire times is a legitimate schedule
  // (the arrival scale ramps twice).
  const Scenario ramp = catalog.resolve("churn_heavy@2h+churn_heavy@4h");
  EXPECT_EQ(ramp.name, "churn_heavy@2h+churn_heavy@4h");
  EXPECT_EQ(ramp.ops.size(),
            2 * catalog.at("churn_heavy").ops.size());
}

// ------------------------------------------------- timeline construction

TEST(Timeline, TimedOpsQueueOnTheConfigInsteadOfApplyingAtBuild) {
  const ScenarioCatalog& catalog = ScenarioCatalog::global();
  const expr::ExperimentConfig base = catalog.make_config("baseline_diurnal");
  const expr::ExperimentConfig timed =
      catalog.make_config("regional_outage@6h+recovery@18h");
  // Nothing reshaped before t=0: budgets and diurnal match the baseline.
  EXPECT_DOUBLE_EQ(timed.vm_budget_per_hour, base.vm_budget_per_hour);
  EXPECT_DOUBLE_EQ(timed.storage_budget_per_hour,
                   base.storage_budget_per_hour);
  EXPECT_DOUBLE_EQ(timed.workload.diurnal.base(),
                   base.workload.diurnal.base());
  // Both outage ops fire at 6h, both recovery ops at 18h.
  ASSERT_EQ(timed.timeline.size(), 4u);
  EXPECT_DOUBLE_EQ(timed.timeline[0].fire_time, 6.0 * 3600.0);
  EXPECT_DOUBLE_EQ(timed.timeline[1].fire_time, 6.0 * 3600.0);
  EXPECT_DOUBLE_EQ(timed.timeline[2].fire_time, 18.0 * 3600.0);
  EXPECT_DOUBLE_EQ(timed.timeline[3].fire_time, 18.0 * 3600.0);
  EXPECT_FALSE(timed.timeline[0].name.empty());
}

TEST(Timeline, RecoveryOpsRestoreThePreTimelineSnapshot) {
  const expr::ExperimentConfig timed = ScenarioCatalog::global().make_config(
      "regional_outage@1h+recovery@2h");
  expr::ExperimentConfig baseline = timed;
  baseline.timeline.clear();
  expr::ExperimentConfig live = baseline;
  // Fire the outage ops: budgets cut, diurnal reshaped.
  timed.timeline[0].apply(live, baseline);
  timed.timeline[1].apply(live, baseline);
  EXPECT_LT(live.vm_budget_per_hour, baseline.vm_budget_per_hour);
  // Fire the recovery ops: everything back to the pre-timeline snapshot.
  timed.timeline[2].apply(live, baseline);
  timed.timeline[3].apply(live, baseline);
  EXPECT_DOUBLE_EQ(live.vm_budget_per_hour, baseline.vm_budget_per_hour);
  EXPECT_DOUBLE_EQ(live.storage_budget_per_hour,
                   baseline.storage_budget_per_hour);
  EXPECT_DOUBLE_EQ(live.workload.diurnal.base(),
                   baseline.workload.diurnal.base());
  EXPECT_EQ(live.workload.diurnal.peaks().size(),
            baseline.workload.diurnal.peaks().size());
}

TEST(Timeline, PartOffsetShiftsAScheduleCarryingPart) {
  const ScenarioCatalog& catalog = ScenarioCatalog::global();
  // stampede_recovery carries its own internal fire time (subsides at 4h).
  const Scenario& stampede = catalog.at("stampede_recovery");
  ASSERT_FALSE(stampede.ops.empty());
  EXPECT_DOUBLE_EQ(stampede.ops.back().fire_time, 4.0 * 3600.0);
  // `part@T` shifts the whole part: untimed ops fire at T, the internal
  // 4h op keeps its relative schedule at T + 4h.
  const Scenario shifted = catalog.resolve("stampede_recovery@2h");
  EXPECT_DOUBLE_EQ(shifted.ops.front().fire_time, 2.0 * 3600.0);
  EXPECT_DOUBLE_EQ(shifted.ops.back().fire_time, 6.0 * 3600.0);
}

TEST(Timeline, UntimedRecoveryIsTheIdentity) {
  const ScenarioCatalog& catalog = ScenarioCatalog::global();
  const expr::ExperimentConfig base = catalog.make_config("baseline_diurnal");
  const expr::ExperimentConfig recovered = catalog.make_config("recovery");
  EXPECT_TRUE(recovered.timeline.empty());
  EXPECT_DOUBLE_EQ(recovered.vm_budget_per_hour, base.vm_budget_per_hour);
  EXPECT_DOUBLE_EQ(recovered.workload.total_arrival_rate,
                   base.workload.total_arrival_rate);
}

// A timeline op touching a field the running system bakes in at t=0 must
// fail fast — before the simulation starts — with a teaching error.
TEST(Timeline, FrozenFieldMutationIsRejectedBeforeTheRunStarts) {
  expr::ExperimentConfig config =
      ScenarioCatalog::global().make_config("baseline_diurnal");
  config.warmup_hours = 0.0;
  config.measure_hours = 2.0;
  expr::TimedConfigOp grow;
  grow.fire_time = 3600.0;
  grow.name = "test.grow_catalog";
  grow.apply = [](expr::ExperimentConfig& live,
                  const expr::ExperimentConfig&) {
    live.workload.num_channels += 1;
  };
  config.timeline.push_back(grow);
  try {
    (void)expr::ExperimentRunner::run(config);
    FAIL() << "expected PreconditionError";
  } catch (const util::PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("test.grow_catalog"), std::string::npos);
    EXPECT_NE(what.find("num_channels"), std::string::npos);
  }
}

// ------------------------------------- seed-hash and population replay

TEST(Timeline, RunSeedIgnoresTimedOpsInTheScenarioExpression) {
  // Same base seed, same grid: the per-run seed must be identical with and
  // without `@`-ops — the hash covers workload-shaping *grid* coordinates
  // only, never the scenario expression.
  ParamGrid grid;
  grid.add_axis("mode", {"cs", "p2p"});

  SweepSpec plain;
  plain.scenario = "baseline_diurnal";
  plain.grid = grid;
  plain.base_seed = testing::kGoldenSeed;
  plain.warmup_hours = 0.0;
  plain.measure_hours = 10.0 / 60.0;

  SweepSpec timed = plain;
  timed.scenario = "regional_outage@45m+recovery@90m";

  const SweepResult plain_result = SweepRunner::run(plain);
  const SweepResult timed_result = SweepRunner::run(timed);
  ASSERT_EQ(plain_result.runs.size(), timed_result.runs.size());
  for (std::size_t i = 0; i < plain_result.runs.size(); ++i) {
    EXPECT_EQ(plain_result.runs[i].seed, timed_result.runs[i].seed);
  }
}

TEST(Timeline, TimedSystemOpReplaysTheExactViewerPopulation) {
  // A timed *system* op (budget cut) must not perturb the arrival streams:
  // the run with the op sees the byte-identical viewer population.
  expr::ExperimentConfig plain =
      ScenarioCatalog::global().make_config("baseline_diurnal");
  plain.warmup_hours = 0.0;
  plain.measure_hours = 2.0;
  plain.seed = testing::kGoldenSeed;

  expr::ExperimentConfig cut = plain;
  expr::TimedConfigOp op;
  op.fire_time = 3600.0;
  op.name = "test.budget_cut";
  op.apply = [](expr::ExperimentConfig& live, const expr::ExperimentConfig&) {
    live.vm_budget_per_hour *= 0.25;
  };
  cut.timeline.push_back(op);

  const expr::ExperimentResult plain_result =
      expr::ExperimentRunner::run(plain);
  const expr::ExperimentResult cut_result = expr::ExperimentRunner::run(cut);
  // Identical population: every arrival lands at the same instant. (Not
  // departures — a starved run stalls playback, so viewers linger past the
  // horizon; that is system behavior, not a population change.)
  EXPECT_EQ(plain_result.metrics.counters.arrivals,
            cut_result.metrics.counters.arrivals);
  // ...and different provisioning: the cut demonstrably fired.
  EXPECT_LT(cut_result.mean_vm_cost_rate(), plain_result.mean_vm_cost_rate());
}

TEST(Timeline, TimedScenarioIsByteIdenticalAcrossThreadCounts) {
  SweepSpec spec;
  spec.scenario = "regional_outage@45m+recovery@90m";
  spec.grid.add_axis("mode", {"cs", "p2p"});
  spec.base_seed = testing::kGoldenSeed;
  spec.warmup_hours = 0.1;
  spec.measure_hours = 1.2;  // past the 1h boundary, so the outage fires
  spec.threads = 1;
  const SweepResult serial = SweepRunner::run(spec);
  spec.threads = 8;
  const SweepResult parallel = SweepRunner::run(spec);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  EXPECT_EQ(serial.to_json().dump(), parallel.to_json().dump());
}

// ------------------------------------------- controller re-convergence

TEST(Timeline, ControllerDipsAndReconvergesAroundABudgetOutage) {
  expr::ExperimentConfig config =
      ScenarioCatalog::global().make_config("baseline_diurnal");
  config.warmup_hours = 0.0;
  config.measure_hours = 3.5;
  config.seed = testing::kGoldenSeed;

  expr::TimedConfigOp collapse;
  collapse.fire_time = 40.0 * 60.0;  // lands at the 1h boundary
  collapse.name = "test.budget_collapse";
  collapse.apply = [](expr::ExperimentConfig& live,
                      const expr::ExperimentConfig&) {
    live.vm_budget_per_hour *= 0.05;
  };
  expr::TimedConfigOp restore;
  restore.fire_time = 2.0 * 3600.0;
  restore.name = "test.budget_restore";
  restore.apply = [](expr::ExperimentConfig& live,
                     const expr::ExperimentConfig& baseline) {
    live.vm_budget_per_hour = baseline.vm_budget_per_hour;
  };
  config.timeline.push_back(restore);  // out of order on purpose:
  config.timeline.push_back(collapse);  // the runner sorts by fire time

  const expr::ExperimentResult result = expr::ExperimentRunner::run(config);
  const util::TimeSeries& reserved = result.metrics.reserved_mbps;
  const util::TimeSeries& quality = result.metrics.quality;

  // Ops land at provisioning boundaries: the 40-minute fire time takes
  // effect at hour 1, so [0.5h, 1h) is still the healthy plateau.
  const double reserved_before = reserved.mean_over(0.5 * 3600.0, 3600.0);
  const double reserved_during =
      reserved.mean_over(1.25 * 3600.0, 2.0 * 3600.0);
  const double reserved_after =
      reserved.mean_over(2.75 * 3600.0, 3.5 * 3600.0);
  EXPECT_LT(reserved_during, 0.3 * reserved_before);
  EXPECT_GT(reserved_after, 2.0 * reserved_during);

  const double quality_before = quality.mean_over(0.5 * 3600.0, 3600.0);
  const double quality_during = quality.mean_over(1.25 * 3600.0, 2.0 * 3600.0);
  const double quality_after = quality.mean_over(2.75 * 3600.0, 3.5 * 3600.0);
  EXPECT_LT(quality_during, quality_before);
  EXPECT_GT(quality_after, quality_during);
}

// -------------------------------------------------- golden registration

TEST(Timeline, OutageTransientPresetResolvesThroughTheTimedAlgebra) {
  const GoldenPreset& preset = golden_preset("outage_transient");
  EXPECT_EQ(preset.spec.scenario, "regional_outage@45m+recovery@90m");
  const expr::ExperimentConfig config =
      ScenarioCatalog::global().make_config(preset.spec.scenario);
  ASSERT_EQ(config.timeline.size(), 4u);
  // Both transitions fall inside the preset horizon (0.25 + 2.75 h): the
  // outage boundary at 1h and the recovery boundary at 2h.
  EXPECT_DOUBLE_EQ(config.timeline.front().fire_time, 45.0 * 60.0);
  EXPECT_DOUBLE_EQ(config.timeline.back().fire_time, 90.0 * 60.0);
  EXPECT_GT(preset.spec.warmup_hours + preset.spec.measure_hours, 2.0);
}

}  // namespace
}  // namespace cloudmedia::sweep
