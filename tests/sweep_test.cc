#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "predict/forecaster.h"
#include "sweep/goldens.h"
#include "sweep/param_grid.h"
#include "sweep/run_summary.h"
#include "sweep/scenario_catalog.h"
#include "sweep/sweep_diff.h"
#include "sweep/sweep_runner.h"
#include "testing/seeds.h"
#include "util/check.h"
#include "util/json.h"

namespace cloudmedia::sweep {
namespace {

// -------------------------------------------------------------- ParamGrid

TEST(ParamGrid, EmptyGridIsOnePoint) {
  ParamGrid grid;
  EXPECT_EQ(grid.num_points(), 1u);
  EXPECT_TRUE(grid.point(0).coords.empty());
}

TEST(ParamGrid, CartesianProductDecodesInOrder) {
  ParamGrid grid;
  grid.add_axis("channels", {"4", "8"});
  grid.add_axis("mode", {"cs", "p2p"});
  ASSERT_EQ(grid.num_points(), 4u);
  // First axis slowest, last fastest.
  EXPECT_EQ(grid.point(0).label(), "channels=4,mode=cs");
  EXPECT_EQ(grid.point(1).label(), "channels=4,mode=p2p");
  EXPECT_EQ(grid.point(2).label(), "channels=8,mode=cs");
  EXPECT_EQ(grid.point(3).label(), "channels=8,mode=p2p");
}

TEST(ParamGrid, ParseSpecs) {
  const ParamGrid grid =
      ParamGrid::parse({"channels=4,8", "mode=cs,p2p", "arrival=0.5"});
  ASSERT_EQ(grid.axes().size(), 3u);
  EXPECT_EQ(grid.axes()[0].name, "channels");
  EXPECT_EQ(grid.axes()[1].values, (std::vector<std::string>{"cs", "p2p"}));
  EXPECT_EQ(grid.num_points(), 4u);
}

TEST(ParamGrid, RejectsBadSpecs) {
  EXPECT_THROW(ParamGrid::parse({"channels"}), util::PreconditionError);
  EXPECT_THROW(ParamGrid::parse({"=4"}), util::PreconditionError);
  EXPECT_THROW(ParamGrid::parse({"channels="}), util::PreconditionError);
  EXPECT_THROW(ParamGrid::parse({"channels=4,,8"}), util::PreconditionError);
  EXPECT_THROW(ParamGrid::parse({"no_such_param=1"}), util::PreconditionError);
  EXPECT_THROW(ParamGrid::parse({"mode=cs", "mode=p2p"}),
               util::PreconditionError);
}

TEST(ParamGrid, ApplyParameterMutatesConfig) {
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  apply_parameter(cfg, "channels", "7");
  apply_parameter(cfg, "mode", "p2p");
  apply_parameter(cfg, "strategy", "reactive");
  apply_parameter(cfg, "arrival", "0.25");
  EXPECT_EQ(cfg.workload.num_channels, 7);
  EXPECT_EQ(cfg.mode, core::StreamingMode::kP2p);
  EXPECT_EQ(cfg.strategy, expr::Strategy::kReactive);
  EXPECT_DOUBLE_EQ(cfg.workload.total_arrival_rate, 0.25);
}

TEST(ParamGrid, ApplyParameterRejectsJunk) {
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  EXPECT_THROW(apply_parameter(cfg, "bogus", "1"), util::PreconditionError);
  EXPECT_THROW(apply_parameter(cfg, "channels", "four"),
               util::PreconditionError);
  EXPECT_THROW(apply_parameter(cfg, "channels", "4x"),
               util::PreconditionError);
  EXPECT_THROW(apply_parameter(cfg, "mode", "hybrid"),
               util::PreconditionError);
  EXPECT_THROW(apply_parameter(cfg, "strategy", "magic"),
               util::PreconditionError);
  EXPECT_THROW(apply_parameter(cfg, "p2p_cap", "verbatim"),
               util::PreconditionError);
  EXPECT_THROW(apply_parameter(cfg, "forecaster", "oracle"),
               util::PreconditionError);
  EXPECT_THROW(apply_parameter(cfg, "region", "atlantis"),
               util::PreconditionError);
  EXPECT_THROW(apply_parameter(cfg, "chunk_minutes", "0"),
               util::PreconditionError);
  EXPECT_THROW(apply_parameter(cfg, "chunk_minutes", "500"),
               util::PreconditionError);
}

// ------------------------------------------ the figure-bench axes (PR 4)

TEST(ParamGrid, ChunkMinutesAppliesCompetingRisksTransform) {
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(core::StreamingMode::kP2p);
  apply_parameter(cfg, "chunk_minutes", "10");
  EXPECT_DOUBLE_EQ(cfg.vod.chunk_duration, 600.0);
  EXPECT_EQ(cfg.vod.chunks_per_video, 10);  // 100-minute video
  EXPECT_EQ(cfg.workload.chunks_per_video, 10);
  // Competing exponential risks: jump at 1/15 per minute, leave at 1/37.
  const double rj = 1.0 / 15.0, rl = 1.0 / 37.0;
  const double event_prob = 1.0 - std::exp(-(rj + rl) * 10.0);
  EXPECT_NEAR(cfg.workload.behavior.jump_prob, event_prob * rj / (rj + rl),
              1e-12);
  EXPECT_NEAR(cfg.workload.behavior.leave_prob, event_prob * rl / (rj + rl),
              1e-12);
  EXPECT_LE(cfg.workload.behavior.jump_prob + cfg.workload.behavior.leave_prob,
            1.0);
  cfg.workload.behavior.validate();  // any T0 must yield a valid behaviour
}

TEST(ParamGrid, P2pCapAndForecasterApply) {
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(core::StreamingMode::kP2p);
  apply_parameter(cfg, "p2p_cap", "literal");
  EXPECT_EQ(cfg.p2p.demand_cap, core::P2pDemandCap::kStreamingRateLiteral);
  apply_parameter(cfg, "p2p_cap", "bandwidth");
  EXPECT_EQ(cfg.p2p.demand_cap, core::P2pDemandCap::kProvisionedBandwidth);

  apply_parameter(cfg, "forecaster", "holt-winters");
  EXPECT_EQ(cfg.strategy, expr::Strategy::kForecast);
  EXPECT_EQ(cfg.forecaster, predict::ForecasterKind::kHoltWinters);
}

TEST(ParamGrid, RegionAppliesFederationDerivation) {
  const expr::ExperimentConfig base =
      expr::ExperimentConfig::make_default(core::StreamingMode::kP2p);

  expr::ExperimentConfig global = base;
  apply_parameter(global, "region", "global");  // consolidated: a no-op
  EXPECT_DOUBLE_EQ(global.workload.total_arrival_rate,
                   base.workload.total_arrival_rate);

  expr::ExperimentConfig asia = base;
  apply_parameter(asia, "region", "asia");  // 45% share, reference clock
  EXPECT_NEAR(asia.workload.total_arrival_rate,
              0.45 * base.workload.total_arrival_rate, 1e-12);
  EXPECT_NEAR(asia.vm_budget_per_hour, 0.45 * base.vm_budget_per_hour, 1e-12);
  EXPECT_EQ(asia.seed, base.seed);  // seeding stays the runner's job

  expr::ExperimentConfig europe = base;
  apply_parameter(europe, "region", "europe");  // 30% share, 1.1x VM prices
  EXPECT_NEAR(europe.workload.total_arrival_rate,
              0.30 * base.workload.total_arrival_rate, 1e-12);
  ASSERT_FALSE(europe.vm_clusters.empty());
  EXPECT_NEAR(europe.vm_clusters[0].price_per_hour,
              1.1 * base.vm_clusters[0].price_per_hour, 1e-12);
}

TEST(ParamGrid, UplinkShapeVariesSpreadOnly) {
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(core::StreamingMode::kP2p);
  apply_parameter(cfg, "uplink_shape", "8");
  EXPECT_DOUBLE_EQ(cfg.workload.uplink_shape, 8.0);
  // The mean pin is what makes the axis a pure-spread knob.
  EXPECT_DOUBLE_EQ(cfg.workload.uplink_mean_ratio, 1.0);
  cfg.workload.validate();
}

TEST(ParamGrid, NewAxesParseAndClassify) {
  const ParamGrid grid = ParamGrid::parse(
      {"chunk_minutes=2.5,5,10", "p2p_cap=literal,bandwidth",
       "forecaster=persistence,holt", "region=global,asia",
       "uplink_shape=1.5,8"});
  EXPECT_EQ(grid.num_points(), 3u * 2u * 2u * 2u * 2u);
  // Workload-shaping axes feed the per-run seed; system-side ones must not.
  EXPECT_TRUE(parameter_affects_workload("chunk_minutes"));
  EXPECT_TRUE(parameter_affects_workload("region"));
  EXPECT_TRUE(parameter_affects_workload("uplink_shape"));
  EXPECT_FALSE(parameter_affects_workload("p2p_cap"));
  EXPECT_FALSE(parameter_affects_workload("forecaster"));
  // p2p_cap/forecaster rows of the same workload share their seed.
  ParamGrid seed_grid;
  seed_grid.add_axis("p2p_cap", {"literal", "bandwidth"});
  EXPECT_EQ(SweepRunner::run_seed(42, seed_grid.point(0)),
            SweepRunner::run_seed(42, seed_grid.point(1)));
}

TEST(ParamGrid, EveryKnownParameterApplies) {
  // Every value the registry lists — each spelling of a choice parameter,
  // each sample of a numeric one — applies to the default config and
  // leaves it valid.
  for (const std::string& name : known_parameters()) {
    (void)parameter_affects_workload(name);  // must not throw
    ASSERT_FALSE(parameter_values(name).empty()) << name;
    for (const std::string& value : parameter_values(name)) {
      SCOPED_TRACE(name + "=" + value);
      expr::ExperimentConfig cfg = expr::ExperimentConfig::make_default(
          core::StreamingMode::kClientServer);
      apply_parameter(cfg, name, value);
      cfg.validate();
    }
  }
}

TEST(ParamGrid, UnknownSpellingNamesEveryAcceptedSpelling) {
  // The choice parameters and how many spellings each accepts.
  const std::vector<std::pair<std::string, std::size_t>> expected = {
      {"region", 4},  {"mode", 2},       {"strategy", 7}, {"capacity", 2},
      {"p2p_cap", 2}, {"forecaster", 7}, {"engine", 3}};
  std::vector<std::pair<std::string, std::size_t>> choices;
  for (const std::string& name : known_parameters()) {
    if (parameter_spellings(name).empty()) continue;
    choices.emplace_back(name, parameter_values(name).size());
    expr::ExperimentConfig cfg =
        expr::ExperimentConfig::make_default(core::StreamingMode::kP2p);
    try {
      apply_parameter(cfg, name, "no-such-spelling");
      ADD_FAILURE() << name << " accepted an unknown spelling";
    } catch (const util::PreconditionError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("expected " + parameter_spellings(name)),
                std::string::npos)
          << message;
      for (const std::string& spelling : parameter_values(name)) {
        EXPECT_NE(message.find(spelling), std::string::npos) << message;
      }
    }
  }
  EXPECT_EQ(choices, expected);
}

TEST(ParamGrid, ChoiceSpellingsSetTheirFields) {
  expr::ExperimentConfig cfg =
      expr::ExperimentConfig::make_default(core::StreamingMode::kP2p);
  apply_parameter(cfg, "engine", "cohort");
  EXPECT_EQ(cfg.engine, expr::Engine::kCohort);
  apply_parameter(cfg, "engine", "auto");
  EXPECT_EQ(cfg.engine, expr::Engine::kAuto);
  apply_parameter(cfg, "engine", "discrete");
  EXPECT_EQ(cfg.engine, expr::Engine::kDiscrete);
  apply_parameter(cfg, "mode", "cs");
  EXPECT_EQ(cfg.mode, core::StreamingMode::kClientServer);
  apply_parameter(cfg, "strategy", "model-nofloor");
  EXPECT_EQ(cfg.strategy, expr::Strategy::kModelBased);
  EXPECT_FALSE(cfg.occupancy_floor);
  apply_parameter(cfg, "strategy", "model");
  EXPECT_TRUE(cfg.occupancy_floor);
  apply_parameter(cfg, "capacity", "literal");
  EXPECT_EQ(cfg.capacity_model, core::CapacityModel::kPerChunkLiteral);
  apply_parameter(cfg, "p2p_cap", "bandwidth");
  EXPECT_EQ(cfg.p2p.demand_cap, core::P2pDemandCap::kProvisionedBandwidth);
  // A forecaster spelling also selects the forecast strategy.
  apply_parameter(cfg, "forecaster", "ewma");
  EXPECT_EQ(cfg.strategy, expr::Strategy::kForecast);
  EXPECT_EQ(cfg.forecaster, predict::ForecasterKind::kEwma);
}

// ------------------------------------------------------ per-run seeding

TEST(SweepRunner, SeedIgnoresSystemSideAxes) {
  ParamGrid grid;
  grid.add_axis("channels", {"4", "8"});
  grid.add_axis("mode", {"cs", "p2p"});
  // Same channels, different mode -> same workload -> same seed.
  EXPECT_EQ(SweepRunner::run_seed(42, grid.point(0)),
            SweepRunner::run_seed(42, grid.point(1)));
  // Different channels -> different workload stream.
  EXPECT_NE(SweepRunner::run_seed(42, grid.point(0)),
            SweepRunner::run_seed(42, grid.point(2)));
  // Base seed feeds in.
  EXPECT_NE(SweepRunner::run_seed(42, grid.point(0)),
            SweepRunner::run_seed(43, grid.point(0)));
}

TEST(SweepRunner, SeedIsStableAcrossProcesses) {
  // Pin the derivation: a silent change would invalidate archived sweeps.
  ParamGrid grid;
  grid.add_axis("channels", {"4"});
  const std::uint64_t seed = SweepRunner::run_seed(42, grid.point(0));
  EXPECT_EQ(seed, SweepRunner::run_seed(42, grid.point(0)));
  EXPECT_NE(seed, 42u);
}

TEST(SweepRunner, CellConfigAppliesEachLayerInPrecedenceOrder) {
  // overrides < customize < grid point; customize sees the override.
  SweepSpec spec;
  spec.warmup_hours = 0.5;
  spec.measure_hours = 2.0;
  spec.overrides = {{"arrival", "0.5"}, {"channels", "6"}};
  spec.customize = [](expr::ExperimentConfig& cfg) {
    cfg.workload.total_arrival_rate *= 2.0;
    cfg.workload.num_channels += 1;
  };
  spec.grid.add_axis("channels", {"3"});
  const GridPoint point = spec.grid.point(0);
  const expr::ExperimentConfig cfg = SweepRunner::cell_config(
      spec, ScenarioCatalog::global().resolve(spec.scenario), point);
  EXPECT_EQ(cfg.workload.total_arrival_rate, 1.0);
  EXPECT_EQ(cfg.workload.num_channels, 3);
  EXPECT_EQ(cfg.warmup_hours, 0.5);
  EXPECT_EQ(cfg.measure_hours, 2.0);
  EXPECT_EQ(cfg.seed, SweepRunner::run_seed(spec.base_seed, point));
}

// -------------------------------------------------------- ScenarioCatalog

TEST(ScenarioCatalog, RegistersTheTwelveBuiltins) {
  const std::vector<std::string> names = ScenarioCatalog::global().names();
  const std::set<std::string> expected = {
      "baseline_diurnal", "flash_crowd",       "weekend_surge",
      "churn_heavy",      "long_tail_catalog", "geo_skewed",
      "regional_outage",  "live_event_cliff",  "catalog_refresh",
      "startup_stampede", "recovery",          "stampede_recovery"};
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()), expected);
}

TEST(ScenarioCatalog, UnknownNameThrowsWithListingAndSyntax) {
  try {
    (void)ScenarioCatalog::global().at("no_such_scenario");
    FAIL() << "expected PreconditionError";
  } catch (const util::PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("flash_crowd"), std::string::npos);
    // The error must teach the composition syntax, not just list names.
    EXPECT_NE(what.find("flash_crowd+churn_heavy"), std::string::npos);
  }
}

TEST(ScenarioCatalog, FindIsSingleLookup) {
  const ScenarioCatalog& catalog = ScenarioCatalog::global();
  const Scenario* scenario = catalog.find("flash_crowd");
  ASSERT_NE(scenario, nullptr);
  EXPECT_EQ(scenario->name, "flash_crowd");
  EXPECT_EQ(&catalog.at("flash_crowd"), scenario);  // same map entry
  EXPECT_EQ(catalog.find("no_such_scenario"), nullptr);
  EXPECT_TRUE(catalog.contains("flash_crowd"));
  EXPECT_FALSE(catalog.contains("no_such_scenario"));
}

TEST(ScenarioCatalog, RejectsDuplicatesBadOpsAndPlusInNames) {
  ScenarioCatalog catalog = ScenarioCatalog::with_builtins();
  EXPECT_THROW(catalog.add({"flash_crowd", "dup", {}}),
               util::PreconditionError);
  // '+' is the composition operator, not a name character.
  EXPECT_THROW(catalog.add({"a+b", "composite-looking name", {}}),
               util::PreconditionError);
  EXPECT_THROW(
      catalog.add({"bad_op", "op without apply", {{"x", "d", true, nullptr}}}),
      util::PreconditionError);
  EXPECT_THROW(
      catalog.add({"unnamed_op",
                   "op without a name",
                   {{"", "d", true, [](expr::ExperimentConfig&) {}}}}),
      util::PreconditionError);
}

TEST(ScenarioCatalog, EveryOpIsNamedDocumentedAndClassified) {
  for (const std::string& name : ScenarioCatalog::global().names()) {
    SCOPED_TRACE(name);
    const Scenario& scenario = ScenarioCatalog::global().at(name);
    EXPECT_FALSE(scenario.description.empty());
    for (const ScenarioOp& op : scenario.ops) {
      EXPECT_FALSE(op.name.empty());
      EXPECT_FALSE(op.description.empty());
      EXPECT_NE(op.apply, nullptr);
    }
  }
  // The identity has no ops; every other builtin has at least one, and the
  // op split is in use on both sides (regional_outage carries a system op).
  EXPECT_TRUE(ScenarioCatalog::global().at("baseline_diurnal").ops.empty());
  const Scenario& outage = ScenarioCatalog::global().at("regional_outage");
  ASSERT_EQ(outage.ops.size(), 2u);
  EXPECT_TRUE(outage.ops[0].workload_shaping);
  EXPECT_FALSE(outage.ops[1].workload_shaping);
}

// Round-trip: every registered scenario must construct a valid config and
// survive 10 simulated minutes end to end.
TEST(ScenarioCatalog, EveryBuiltinRunsTenMinutes) {
  for (const std::string& name : ScenarioCatalog::global().names()) {
    SCOPED_TRACE(name);
    SweepSpec spec;
    spec.scenario = name;
    spec.base_seed = testing::kGoldenSeed;
    spec.warmup_hours = 0.0;
    spec.measure_hours = 10.0 / 60.0;
    const SweepResult result = SweepRunner::run(spec);
    ASSERT_EQ(result.runs.size(), 1u);
    EXPECT_GT(result.runs[0].sim_events, 0u);
  }
}

// ------------------------------------------------- scenario composition

TEST(ScenarioCatalog, ResolveSingleNameReturnsTheScenarioUnchanged) {
  const Scenario resolved = ScenarioCatalog::global().resolve("churn_heavy");
  EXPECT_EQ(resolved.name, "churn_heavy");
  EXPECT_EQ(resolved.ops.size(),
            ScenarioCatalog::global().at("churn_heavy").ops.size());
}

TEST(ScenarioCatalog, ResolveConcatenatesOpsLeftToRight) {
  const ScenarioCatalog& catalog = ScenarioCatalog::global();
  const Scenario composed = catalog.resolve("flash_crowd+churn_heavy");
  EXPECT_EQ(composed.name, "flash_crowd+churn_heavy");
  const Scenario& flash = catalog.at("flash_crowd");
  const Scenario& churn = catalog.at("churn_heavy");
  ASSERT_EQ(composed.ops.size(), flash.ops.size() + churn.ops.size());
  for (std::size_t i = 0; i < flash.ops.size(); ++i) {
    EXPECT_EQ(composed.ops[i].name, flash.ops[i].name);
  }
  for (std::size_t i = 0; i < churn.ops.size(); ++i) {
    EXPECT_EQ(composed.ops[flash.ops.size() + i].name, churn.ops[i].name);
  }
  // Applying the composite == applying the parts in sequence.
  expr::ExperimentConfig via_composite =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  composed.apply(via_composite);
  expr::ExperimentConfig via_parts =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  flash.apply(via_parts);
  churn.apply(via_parts);
  EXPECT_DOUBLE_EQ(via_composite.workload.total_arrival_rate,
                   via_parts.workload.total_arrival_rate);
  EXPECT_DOUBLE_EQ(via_composite.workload.behavior.leave_prob,
                   via_parts.workload.behavior.leave_prob);
  EXPECT_EQ(via_composite.workload.diurnal.peaks().size(),
            via_parts.workload.diurnal.peaks().size());
}

TEST(ScenarioCatalog, BaselineIsTheIdentityOfTheAlgebra) {
  const ScenarioCatalog& catalog = ScenarioCatalog::global();
  const expr::ExperimentConfig composed =
      catalog.make_config("baseline_diurnal+flash_crowd");
  const expr::ExperimentConfig plain = catalog.make_config("flash_crowd");
  EXPECT_DOUBLE_EQ(composed.workload.diurnal.base(),
                   plain.workload.diurnal.base());
  EXPECT_EQ(composed.workload.diurnal.peaks().size(),
            plain.workload.diurnal.peaks().size());
  EXPECT_DOUBLE_EQ(composed.workload.total_arrival_rate,
                   plain.workload.total_arrival_rate);
}

// Order sensitivity is part of the contract: last writer wins where parts
// touch the same field, and disjoint parts commute.
TEST(ScenarioCatalog, CompositionOrderPinnedWhereItMatters) {
  const ScenarioCatalog& catalog = ScenarioCatalog::global();
  // flash_crowd and weekend_surge both replace the diurnal pattern:
  // whichever comes second owns it (weekend's arrival scale applies in
  // both orders — it multiplies, it does not overwrite).
  const expr::ExperimentConfig fw =
      catalog.make_config("flash_crowd+weekend_surge");
  const expr::ExperimentConfig wf =
      catalog.make_config("weekend_surge+flash_crowd");
  const expr::ExperimentConfig weekend = catalog.make_config("weekend_surge");
  const expr::ExperimentConfig flash = catalog.make_config("flash_crowd");
  EXPECT_DOUBLE_EQ(fw.workload.diurnal.base(),
                   weekend.workload.diurnal.base());
  EXPECT_DOUBLE_EQ(wf.workload.diurnal.base(), flash.workload.diurnal.base());
  EXPECT_NE(fw.workload.diurnal.base(), wf.workload.diurnal.base());
  EXPECT_DOUBLE_EQ(fw.workload.total_arrival_rate,
                   wf.workload.total_arrival_rate);  // 1.15x either way
  // Disjoint parts commute: flash_crowd (diurnal) + churn_heavy
  // (behavior, arrival scale) give the same config in both orders.
  const expr::ExperimentConfig fc =
      catalog.make_config("flash_crowd+churn_heavy");
  const expr::ExperimentConfig cf =
      catalog.make_config("churn_heavy+flash_crowd");
  EXPECT_DOUBLE_EQ(fc.workload.diurnal.base(), cf.workload.diurnal.base());
  EXPECT_DOUBLE_EQ(fc.workload.total_arrival_rate,
                   cf.workload.total_arrival_rate);
  EXPECT_DOUBLE_EQ(fc.workload.behavior.jump_prob,
                   cf.workload.behavior.jump_prob);
}

TEST(ScenarioCatalog, ResolveRejectsJunkExpressions) {
  const ScenarioCatalog& catalog = ScenarioCatalog::global();
  EXPECT_THROW((void)catalog.resolve(""), util::PreconditionError);
  EXPECT_THROW((void)catalog.resolve("+"), util::PreconditionError);
  EXPECT_THROW((void)catalog.resolve("flash_crowd+"), util::PreconditionError);
  EXPECT_THROW((void)catalog.resolve("+flash_crowd"), util::PreconditionError);
  EXPECT_THROW((void)catalog.resolve("flash_crowd++churn_heavy"),
               util::PreconditionError);
  EXPECT_THROW((void)catalog.resolve("flash_crowd+no_such_scenario"),
               util::PreconditionError);
  try {
    (void)catalog.resolve("flash_crowd+");
    FAIL() << "expected PreconditionError";
  } catch (const util::PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("empty part"), std::string::npos);
  }
}

// ------------------------------------------------- catalog growth (PR 5)

TEST(ScenarioCatalog, RegionalOutageShapesSurvivorStack) {
  const ScenarioCatalog& catalog = ScenarioCatalog::global();
  const expr::ExperimentConfig base = catalog.make_config("baseline_diurnal");
  const expr::ExperimentConfig outage = catalog.make_config("regional_outage");
  // Displaced audience: full arrival rate, blended clocks (2x the peaks).
  EXPECT_DOUBLE_EQ(outage.workload.total_arrival_rate,
                   base.workload.total_arrival_rate);
  EXPECT_EQ(outage.workload.diurnal.peaks().size(),
            2 * base.workload.diurnal.peaks().size());
  // Survivor budget slice: 55% of the global budgets.
  EXPECT_NEAR(outage.vm_budget_per_hour, 0.55 * base.vm_budget_per_hour,
              1e-12);
  EXPECT_NEAR(outage.storage_budget_per_hour,
              0.55 * base.storage_budget_per_hour, 1e-12);
}

TEST(ScenarioCatalog, LiveEventCliffShapesWallAndSynchronizedViewing) {
  const expr::ExperimentConfig cfg =
      ScenarioCatalog::global().make_config("live_event_cliff");
  ASSERT_EQ(cfg.workload.diurnal.peaks().size(), 1u);
  EXPECT_DOUBLE_EQ(cfg.workload.diurnal.peaks()[0].amplitude, 8.0);
  EXPECT_LT(cfg.workload.diurnal.peaks()[0].width, 0.5);  // a wall, not a hill
  EXPECT_DOUBLE_EQ(cfg.workload.behavior.alpha, 1.0);  // synchronized start
  cfg.workload.validate();
  // The wall dwarfs the base: peak multiplier is dominated by the event.
  EXPECT_GT(cfg.workload.diurnal.max_multiplier(),
            8.0 * cfg.workload.diurnal.base());
}

TEST(ScenarioCatalog, CatalogRefreshEnablesRotation) {
  const expr::ExperimentConfig cfg =
      ScenarioCatalog::global().make_config("catalog_refresh");
  EXPECT_GT(cfg.workload.refresh_period_hours, 0.0);
  EXPECT_NE(cfg.workload.refresh_shift, 0);
  cfg.workload.validate();
  // And the default config keeps it off — the paper setup is static.
  const expr::ExperimentConfig base =
      ScenarioCatalog::global().make_config("baseline_diurnal");
  EXPECT_DOUBLE_EQ(base.workload.refresh_period_hours, 0.0);
}

TEST(ScenarioCatalog, StartupStampedeBurstsAtTimeZero) {
  const expr::ExperimentConfig cfg =
      ScenarioCatalog::global().make_config("startup_stampede");
  ASSERT_FALSE(cfg.workload.diurnal.peaks().empty());
  EXPECT_DOUBLE_EQ(cfg.workload.diurnal.peaks()[0].hour, 0.0);
  // The burst is live the instant the simulation starts — no ramp-in.
  EXPECT_GT(cfg.workload.diurnal.multiplier(0.0),
            4.0 * cfg.workload.diurnal.base());
  cfg.workload.validate();
}

// --------------------------------------------------- end-to-end determinism

SweepSpec small_grid_spec(unsigned threads) {
  SweepSpec spec;
  spec.scenario = "flash_crowd";
  spec.grid.add_axis("channels", {"3", "5"});
  spec.grid.add_axis("mode", {"cs", "p2p"});
  spec.base_seed = testing::kGoldenSeed;
  spec.threads = threads;
  spec.warmup_hours = 0.1;
  spec.measure_hours = 0.4;
  return spec;
}

TEST(SweepRunner, ThreadCountDoesNotChangeOutput) {
  const SweepResult serial = SweepRunner::run(small_grid_spec(1));
  const SweepResult parallel = SweepRunner::run(small_grid_spec(8));
  // The acceptance bar: byte-identical CSV and JSON whatever the fan-out.
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  EXPECT_EQ(serial.to_json().dump(), parallel.to_json().dump());
  ASSERT_EQ(serial.runs.size(), 4u);
  for (const RunSummary& run : serial.runs) {
    EXPECT_GT(run.sim_events, 0u);
    EXPECT_GE(run.mean_quality, 0.0);
    EXPECT_LE(run.mean_quality, 1.0);
  }
}

TEST(SweepRunner, FirstFailingCellInGridOrderIsRethrown) {
  // The parallel path runs plain worker threads that claim cells off a
  // shared counter: a throwing cell must not stop the others, and the
  // failure rethrown is the first in grid order, whichever finishes first.
  EXPECT_GE(default_threads(), 1u);
  SweepSpec spec;
  spec.scenario = "flash_crowd";
  spec.grid.add_axis("channels", {"2", "3", "4", "5", "6", "7", "8", "9"});
  spec.base_seed = testing::kGoldenSeed;
  spec.threads = 4;
  spec.warmup_hours = 0.02;
  spec.measure_hours = 0.05;
  std::mutex mutex;
  std::vector<int> reached(8, 0);
  spec.sink = [&mutex, &reached](std::size_t cell, RunSummary) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++reached[cell];
    if (cell == 3 || cell == 5) {
      throw std::runtime_error("cell " + std::to_string(cell));
    }
  };
  try {
    (void)SweepRunner::run(spec);
    ADD_FAILURE() << "SweepRunner::run swallowed the failing cells";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "cell 3");
  }
  EXPECT_EQ(reached, std::vector<int>(8, 1));
}

TEST(SweepRunner, CsvShapeMatchesGrid) {
  const SweepResult result = SweepRunner::run(small_grid_spec(2));
  const std::string csv = result.to_csv();
  // Header + one row per grid cell, each ending in a newline.
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u + result.runs.size());
  EXPECT_EQ(csv.rfind("scenario,channels,mode,seed,mean_quality", 0), 0u);
  // cs and p2p rows of the same channel count share their seed column.
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.runs[0].seed, result.runs[1].seed);
  EXPECT_NE(result.runs[0].seed, result.runs[2].seed);
}

TEST(SweepRunner, KeepResultsRetainsSeries) {
  SweepSpec spec = small_grid_spec(2);
  spec.keep_results = true;
  const SweepResult result = SweepRunner::run(spec);
  ASSERT_EQ(result.results.size(), 4u);
  for (const expr::ExperimentResult& r : result.results) {
    EXPECT_FALSE(r.metrics.quality.empty());
  }
}

// The composed-scenario acceptance bar: a composite expression runs, its
// name is threaded into every row and both output headers, and the output
// is byte-identical on 1 thread and 8.
TEST(SweepRunner, ComposedScenarioIsThreadCountInvariant) {
  SweepSpec spec;
  spec.scenario = "flash_crowd+churn_heavy";
  spec.grid.add_axis("mode", {"cs", "p2p"});
  spec.base_seed = testing::kGoldenSeed;
  spec.warmup_hours = 0.05;
  spec.measure_hours = 0.2;
  spec.threads = 1;
  const SweepResult serial = SweepRunner::run(spec);
  spec.threads = 8;
  const SweepResult parallel = SweepRunner::run(spec);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  EXPECT_EQ(serial.to_json().dump(), parallel.to_json().dump());
  // Provenance: the composite expression is the scenario, everywhere.
  EXPECT_EQ(serial.scenario, "flash_crowd+churn_heavy");
  ASSERT_EQ(serial.runs.size(), 2u);
  for (const RunSummary& run : serial.runs) {
    EXPECT_EQ(run.scenario, "flash_crowd+churn_heavy");
    EXPECT_GT(run.sim_events, 0u);
  }
  EXPECT_NE(serial.to_csv().find("flash_crowd+churn_heavy,cs"),
            std::string::npos);
  EXPECT_NE(serial.to_json().dump().find("\"flash_crowd+churn_heavy\""),
            std::string::npos);
  // And the diff pipeline sees composite headers as ordinary strings: the
  // same sweep diffs clean against itself.
  EXPECT_TRUE(diff_sweeps(serial.to_json(), parallel.to_json()).identical());
}

TEST(SweepRunner, MalformedCompositeFailsFast) {
  SweepSpec spec;
  spec.scenario = "flash_crowd+";
  EXPECT_THROW((void)SweepRunner::run(spec), util::PreconditionError);
  spec.scenario = "flash_crowd+no_such_scenario";
  EXPECT_THROW((void)SweepRunner::run(spec), util::PreconditionError);
}

TEST(SweepSpec, ApplyFlagsReadsScheduleAndValidatesThreads) {
  {
    const char* argv[] = {"prog", "--seed=7", "--threads=3", "--hours=2.5"};
    SweepSpec spec;
    spec.warmup_hours = 0.5;
    spec.apply_flags(expr::Flags(4, argv));
    EXPECT_EQ(spec.base_seed, 7u);
    EXPECT_EQ(spec.threads, 3u);
    EXPECT_DOUBLE_EQ(spec.measure_hours, 2.5);
    EXPECT_DOUBLE_EQ(spec.warmup_hours, 0.5);  // untouched default
  }
  {
    const char* argv[] = {"prog", "--threads=-1"};
    SweepSpec spec;
    EXPECT_THROW(spec.apply_flags(expr::Flags(2, argv)),
                 util::PreconditionError);
  }
  {
    const char* argv[] = {"prog", "--threads=99999"};
    SweepSpec spec;
    EXPECT_THROW(spec.apply_flags(expr::Flags(2, argv)),
                 util::PreconditionError);
  }
}

TEST(SweepRunner, UnknownScenarioFailsFast) {
  SweepSpec spec;
  spec.scenario = "no_such_scenario";
  EXPECT_THROW((void)SweepRunner::run(spec), util::PreconditionError);
}

// ------------------------------------------------------------- sharding

TEST(ShardSpec, ParsesKOverNAndRejectsJunk) {
  const ShardSpec shard = ShardSpec::parse("2/5");
  EXPECT_EQ(shard.index, 2u);
  EXPECT_EQ(shard.count, 5u);
  EXPECT_EQ(shard.label(), "2/5");
  EXPECT_FALSE(shard.whole());
  EXPECT_TRUE(ShardSpec().whole());
  EXPECT_EQ(ShardSpec::parse("0/1").count, 1u);
  for (const std::string junk :
       {"", "1", "a/b", "1/", "/2", "1//2", "-1/2", " 1/2", "1/2 ", "1.0/2",
        "1/0", "2/2", "3/2", "99999999999999999999/2"}) {
    EXPECT_THROW((void)ShardSpec::parse(junk), util::PreconditionError)
        << "accepted '" << junk << "'";
  }
  // The syntax error teaches the k/N form.
  try {
    (void)ShardSpec::parse("5/2");
    FAIL();
  } catch (const util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("k/N"), std::string::npos);
  }
}

TEST(ShardSpec, FlagRoundTripsThroughApplyFlags) {
  const char* argv[] = {"prog", "--shard=1/3"};
  SweepSpec spec;
  spec.apply_flags(expr::Flags(2, argv));
  EXPECT_EQ(spec.shard.index, 1u);
  EXPECT_EQ(spec.shard.count, 3u);
}

TEST(SweepRunner, ShardCellsPartitionEveryGridExactlyOnce) {
  // Disjoint, covering, ordered — for assorted totals and widths,
  // including N > cells (some shards legitimately own nothing).
  for (const std::size_t total : {0u, 1u, 4u, 10u, 17u, 100u}) {
    for (const std::size_t n : {1u, 2u, 3u, 5u, 7u, 23u}) {
      std::set<std::size_t> seen;
      for (std::size_t k = 0; k < n; ++k) {
        const std::vector<std::size_t> cells =
            SweepRunner::shard_cells(total, ShardSpec{k, n});
        std::size_t prev = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
          EXPECT_LT(cells[i], total);
          EXPECT_EQ(cells[i] % n, k);  // interleaved ownership
          if (i) {
            EXPECT_GT(cells[i], prev);
          }
          prev = cells[i];
          EXPECT_TRUE(seen.insert(cells[i]).second)
              << "cell " << cells[i] << " owned twice (total " << total
              << ", width " << n << ")";
        }
      }
      EXPECT_EQ(seen.size(), total) << "width " << n;
    }
  }
}

TEST(SweepSpec, SpecHashPinsScheduleButNotExecutionKnobs) {
  SweepSpec spec = small_grid_spec(1);
  const std::string hash = spec.spec_hash();
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(spec.spec_hash(), hash);  // stable

  // Execution knobs do not change what is computed, so they must not
  // change the hash — shards launched with different --threads merge.
  SweepSpec knobs = small_grid_spec(1);
  knobs.threads = 8;
  knobs.shard = ShardSpec{1, 4};
  EXPECT_EQ(knobs.spec_hash(), hash);

  // Every schedule-shaping field does.
  SweepSpec changed = small_grid_spec(1);
  changed.scenario = "churn_heavy";
  EXPECT_NE(changed.spec_hash(), hash);
  changed = small_grid_spec(1);
  changed.base_seed ^= 1;
  EXPECT_NE(changed.spec_hash(), hash);
  changed = small_grid_spec(1);
  changed.measure_hours += 0.1;
  EXPECT_NE(changed.spec_hash(), hash);
  changed = small_grid_spec(1);
  changed.warmup_hours += 0.1;
  EXPECT_NE(changed.spec_hash(), hash);
  changed = small_grid_spec(1);
  changed.grid = ParamGrid();
  changed.grid.add_axis("channels", {"3", "6"});
  changed.grid.add_axis("mode", {"cs", "p2p"});
  EXPECT_NE(changed.spec_hash(), hash);
}

TEST(SweepRunner, ShardedRunCarriesHeaderUnshardedStaysByteFrozen) {
  // Unsharded output must not grow a shard header — the committed goldens
  // pin that serialization.
  const SweepResult whole = SweepRunner::run(small_grid_spec(1));
  EXPECT_EQ(whole.to_json().dump().find("\"shard\""), std::string::npos);
  EXPECT_EQ(whole.to_json().dump().find("\"cell\""), std::string::npos);

  SweepSpec spec = small_grid_spec(1);
  spec.shard = ShardSpec{1, 2};
  const SweepResult shard = SweepRunner::run(spec);
  EXPECT_EQ(shard.runs.size(), 2u);
  EXPECT_EQ(shard.cell_indices, (std::vector<std::size_t>{1, 3}));
  const std::string dump = shard.to_json().dump(-1);
  EXPECT_NE(dump.find("\"shard\""), std::string::npos);
  EXPECT_NE(dump.find("\"spec_hash\""), std::string::npos);
  EXPECT_NE(dump.find("\"cell\":1"), std::string::npos);
  // Shard rows are the same bytes as the matching unsharded rows: same
  // global cells, same seeds, same metrics.
  EXPECT_EQ(shard.to_json().at("runs").items()[0].dump(),
            [&] {
              util::JsonValue run = whole.to_json().at("runs").items()[1];
              util::JsonValue tagged = util::JsonValue::object();
              tagged["cell"] = 1.0;
              for (const auto& [key, value] : run.members()) {
                tagged[key] = value;
              }
              return tagged.dump();
            }());
}

// ----------------------------------------- per-preset thread determinism
//
// One determinism check per figure/ablation preset: its grid — including
// the new axes — must produce byte-identical CSV on 1 thread and on 8.
// The horizon is cut far below the preset's golden schedule: this test
// guards the *axes* (does some applier or scenario hook break seed
// stability?); the full-schedule byte comparison lives in golden_test.

class PresetDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(PresetDeterminism, ThreadCountDoesNotChangeOutput) {
  SweepSpec spec = golden_preset(GetParam()).spec;
  spec.warmup_hours = 0.05;
  spec.measure_hours = 0.2;
  spec.threads = 1;
  const SweepResult serial = SweepRunner::run(spec);
  spec.threads = 8;
  const SweepResult parallel = SweepRunner::run(spec);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  EXPECT_EQ(serial.to_json().dump(), parallel.to_json().dump());
  ASSERT_EQ(serial.runs.size(), spec.grid.num_points());
  for (const RunSummary& run : serial.runs) EXPECT_GT(run.sim_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    NewFigurePresets, PresetDeterminism,
    ::testing::Values("fig04_provisioning", "fig05_quality",
                      "fig07_bandwidth_scaling", "fig08_storage_utility",
                      "fig09_vm_utility", "fig10_vm_cost",
                      "fig11_peer_sufficiency", "ablation_boot_delay",
                      "ablation_chunk_size", "ablation_geo", "ablation_hetero",
                      "ablation_p2p_cap", "ablation_prediction",
                      "ablation_pooling", "outage_transient"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ------------------------------------------------------------------ JSON

TEST(Json, DumpEscapingAndShape) {
  util::JsonValue root = util::JsonValue::object();
  root["name"] = "a\"b\\c\nd";
  root["count"] = 3;
  root["ok"] = true;
  root["items"].push_back(1.5);
  root["items"].push_back("x");
  EXPECT_EQ(root.dump(-1),
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"count\":3,\"ok\":true,"
            "\"items\":[1.5,\"x\"]}");
}

TEST(Json, PrettyPrintIsStable) {
  util::JsonValue root = util::JsonValue::object();
  root["a"] = 1;
  root["b"].push_back(2);
  EXPECT_EQ(root.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(Json, NumberFormatting) {
  EXPECT_EQ(util::format_number(3.0), "3");
  EXPECT_EQ(util::format_number(-41.0), "-41");
  EXPECT_EQ(util::format_number(0.125), "0.125");
  EXPECT_EQ(util::format_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
}

TEST(Json, NumberFormattingRoundTripsExactly) {
  // Shortest-round-trip formatting is what lets the golden diff compare
  // exact doubles out of files.
  for (double value : {1.0 / 3.0, 0.1, 931.5333333333333, 2.5e-15, -7.25e20}) {
    EXPECT_EQ(std::stod(util::format_number(value)), value);
  }
}

TEST(Json, ParseRoundTripsDump) {
  util::JsonValue root = util::JsonValue::object();
  root["name"] = "a\"b\\c\nd";
  root["count"] = 3;
  root["ratio"] = 0.125;
  root["ok"] = true;
  root["none"] = util::JsonValue();
  root["items"].push_back(1.5);
  root["items"].push_back("x");
  root["nested"]["k"] = "v";
  for (int indent : {-1, 2}) {
    const util::JsonValue parsed = util::JsonValue::parse(root.dump(indent));
    EXPECT_EQ(parsed.dump(indent), root.dump(indent));
  }
}

TEST(Json, ParseReadAccessors) {
  const util::JsonValue doc = util::JsonValue::parse(
      "{\"s\": \"hi\", \"n\": -2.5e2, \"b\": false, \"z\": null,"
      " \"a\": [1, 2, 3], \"u\": \"caf\\u00e9\"}");
  EXPECT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("s").as_string(), "hi");
  EXPECT_DOUBLE_EQ(doc.at("n").as_number(), -250.0);
  EXPECT_FALSE(doc.at("b").as_bool());
  EXPECT_TRUE(doc.at("z").is_null());
  ASSERT_TRUE(doc.at("a").is_array());
  EXPECT_EQ(doc.at("a").items().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("a").items()[1].as_number(), 2.0);
  EXPECT_EQ(doc.at("u").as_string(), "caf\xc3\xa9");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), util::PreconditionError);
  EXPECT_THROW((void)doc.at("s").as_number(), util::PreconditionError);
}

TEST(Json, ParseRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
        "{\"a\":1} trailing", "[1 2]", "{\"a\" 1}", "\"bad\\qescape\""}) {
    EXPECT_THROW((void)util::JsonValue::parse(bad), std::runtime_error)
        << "input: " << bad;
  }
}

// ------------------------------------------------------------ sweep diff

util::JsonValue sweep_doc(double quality, const std::string& seed,
                          const std::string& base_seed = "42") {
  util::JsonValue doc = util::JsonValue::object();
  doc["scenario"] = "flash_crowd";
  doc["base_seed"] = base_seed;
  util::JsonValue run = util::JsonValue::object();
  run["params"]["channels"] = "4";
  run["params"]["mode"] = "cs";
  run["seed"] = seed;
  run["mean_quality"] = quality;
  run["cost_per_hour"] = 12.5;
  doc["runs"].push_back(std::move(run));
  return doc;
}

TEST(SweepDiff, IdenticalDocumentsReportNoDeltas) {
  const util::JsonValue a = sweep_doc(0.75, "99");
  const SweepDiff diff = diff_sweeps(a, a);
  EXPECT_TRUE(diff.identical());
  EXPECT_EQ(diff.cells_compared, 1u);
  EXPECT_EQ(diff.metrics_compared, 2u);
  EXPECT_EQ(diff.num_deltas(), 0u);
  EXPECT_NE(diff.report().find("identical"), std::string::npos);
}

TEST(SweepDiff, ReportsPerCellMetricDeltas) {
  const SweepDiff diff =
      diff_sweeps(sweep_doc(0.75, "99"), sweep_doc(0.5, "99"));
  EXPECT_FALSE(diff.identical());
  ASSERT_EQ(diff.cells.size(), 1u);
  EXPECT_EQ(diff.cells[0].cell, "channels=4,mode=cs");
  EXPECT_FALSE(diff.cells[0].seed_mismatch);
  ASSERT_EQ(diff.cells[0].deltas.size(), 1u);
  EXPECT_EQ(diff.cells[0].deltas[0].metric, "mean_quality");
  EXPECT_DOUBLE_EQ(diff.cells[0].deltas[0].delta(), -0.25);
  EXPECT_NE(diff.report().find("DIFFERS"), std::string::npos);
  // The JSON report mirrors the text one.
  const util::JsonValue report = diff.to_json();
  EXPECT_FALSE(report.at("identical").as_bool());
  EXPECT_DOUBLE_EQ(report.at("num_deltas").as_number(), 1.0);
}

TEST(SweepDiff, ToleranceSuppressesSmallDeltas) {
  EXPECT_TRUE(
      diff_sweeps(sweep_doc(0.75, "99"), sweep_doc(0.76, "99"), 0.02)
          .identical());
  EXPECT_FALSE(
      diff_sweeps(sweep_doc(0.75, "99"), sweep_doc(0.78, "99"), 0.02)
          .identical());
}

TEST(SweepDiff, FlagsSeedAndHeaderMismatches) {
  const SweepDiff diff =
      diff_sweeps(sweep_doc(0.75, "99"), sweep_doc(0.75, "100", "43"));
  EXPECT_FALSE(diff.identical());
  ASSERT_EQ(diff.cells.size(), 1u);
  EXPECT_TRUE(diff.cells[0].seed_mismatch);
  ASSERT_EQ(diff.notes.size(), 1u);
  EXPECT_NE(diff.notes[0].find("base_seed"), std::string::npos);
}

TEST(SweepDiff, UnmatchedCellsListedPerSide) {
  util::JsonValue a = sweep_doc(0.75, "99");
  util::JsonValue b = sweep_doc(0.75, "99");
  util::JsonValue extra = util::JsonValue::object();
  extra["params"]["channels"] = "8";
  extra["params"]["mode"] = "cs";
  extra["seed"] = "7";
  extra["mean_quality"] = 0.9;
  b["runs"].push_back(std::move(extra));
  const SweepDiff diff = diff_sweeps(a, b);
  EXPECT_FALSE(diff.identical());
  ASSERT_EQ(diff.only_in_b.size(), 1u);
  EXPECT_EQ(diff.only_in_b[0], "channels=8,mode=cs");
  EXPECT_TRUE(diff.only_in_a.empty());
}

TEST(SweepDiff, MissingMetricReportedNotSkipped) {
  const util::JsonValue a = sweep_doc(0.75, "99");
  // b lacks cost_per_hour entirely.
  util::JsonValue b = util::JsonValue::object();
  b["scenario"] = "flash_crowd";
  b["base_seed"] = "42";
  util::JsonValue run = util::JsonValue::object();
  run["params"]["channels"] = "4";
  run["params"]["mode"] = "cs";
  run["seed"] = "99";
  run["mean_quality"] = 0.75;
  b["runs"].push_back(std::move(run));
  const SweepDiff diff = diff_sweeps(a, b);
  EXPECT_FALSE(diff.identical());
  ASSERT_EQ(diff.cells.size(), 1u);
  ASSERT_EQ(diff.cells[0].deltas.size(), 1u);
  EXPECT_EQ(diff.cells[0].deltas[0].metric, "cost_per_hour");
  EXPECT_TRUE(diff.cells[0].deltas[0].b_missing);

  // The other direction too: A dropping a metric the golden (B) still has
  // must fail the gate, not pass it.
  const SweepDiff reverse = diff_sweeps(b, a);
  EXPECT_FALSE(reverse.identical());
  ASSERT_EQ(reverse.cells.size(), 1u);
  ASSERT_EQ(reverse.cells[0].deltas.size(), 1u);
  EXPECT_EQ(reverse.cells[0].deltas[0].metric, "cost_per_hour");
  EXPECT_TRUE(reverse.cells[0].deltas[0].a_missing);
  EXPECT_NE(reverse.report().find("(missing)"), std::string::npos);
}

TEST(SweepDiff, RejectsNonSweepDocuments) {
  EXPECT_THROW(
      (void)diff_sweeps(util::JsonValue::parse("{\"x\":1}"),
                        sweep_doc(0.5, "1")),
      std::runtime_error);
}

// End to end through files: a real sweep diffed against its own JSON is
// clean; the same grid at another seed differs in every cell.
TEST(SweepDiff, EndToEndRunVsPerturbedSeed) {
  SweepSpec spec = small_grid_spec(2);
  const SweepResult base = SweepRunner::run(spec);
  spec.base_seed = testing::kGoldenSeed + 1;
  const SweepResult perturbed = SweepRunner::run(spec);

  EXPECT_TRUE(diff_sweeps(base.to_json(), base.to_json()).identical());
  const SweepDiff diff = diff_sweeps(base.to_json(), perturbed.to_json());
  EXPECT_FALSE(diff.identical());
  EXPECT_EQ(diff.cells_compared, base.runs.size());
  EXPECT_GT(diff.num_deltas(), 0u);
  for (const CellDiff& cell : diff.cells) EXPECT_TRUE(cell.seed_mismatch);
}

}  // namespace
}  // namespace cloudmedia::sweep
