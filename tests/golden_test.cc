// Golden-snapshot regression tests: every frozen preset in
// src/sweep/goldens.cc must reproduce the checked-in goldens/<name>.{csv,json}
// byte for byte, whatever the thread count. A failure here means either a
// provisioning regression or an accidental Rng stream change — if the new
// behavior is intended, regenerate with scripts/regen-goldens.sh and commit
// the moved snapshots with an explanation.
//
// The goldens directory is baked in at configure time
// (CLOUDMEDIA_GOLDEN_DIR, tests/CMakeLists.txt), so the test runs from any
// working directory.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "sweep/goldens.h"
#include "sweep/sweep_diff.h"
#include "sweep/sweep_runner.h"
#include "testing/seeds.h"
#include "util/json.h"

namespace cloudmedia::sweep {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "cannot open golden file " << path
                  << " (run scripts/regen-goldens.sh?)";
    return {};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string golden_path(const std::string& name, const char* extension) {
  return std::string(CLOUDMEDIA_GOLDEN_DIR) + "/" + name + "." + extension;
}

TEST(Goldens, SeedMatchesTestingPolicy) {
  // One constant, two homes: src/sweep/goldens.h for the library and
  // tests/testing/seeds.h for the test-seeding policy.
  EXPECT_EQ(kGoldenSeed, testing::kGoldenSeed);
}

TEST(Goldens, PresetsAreRegisteredAndDistinct) {
  ASSERT_FALSE(golden_presets().empty());
  for (const GoldenPreset& preset : golden_presets()) {
    SCOPED_TRACE(preset.name);
    EXPECT_EQ(&golden_preset(preset.name), &preset);
    EXPECT_EQ(preset.spec.base_seed, kGoldenSeed);
    EXPECT_FALSE(preset.description.empty());
  }
  EXPECT_THROW((void)golden_preset("no_such_preset"), util::PreconditionError);
}

// Every figure and ablation of the paper's evaluation is a named preset —
// plus the scenario-algebra presets (a composed expression, the richest
// catalog primitive, and the timed-op transient): `tool_sweep
// --golden=<name>` must be able to reproduce any of them, and a rename is
// a deliberate interface change, not drift. (fig06 has no standalone
// entry in this list — it shipped first as fig06_modes.)
TEST(Goldens, EveryPaperFigureAndAblationHasAPreset) {
  const char* const kExpected[] = {
      "sweep_demo",          "fig06_modes",
      "ablation_strategies", "fig04_provisioning",
      "fig05_quality",       "fig07_bandwidth_scaling",
      "fig08_storage_utility", "fig09_vm_utility",
      "fig10_vm_cost",       "fig11_peer_sufficiency",
      "ablation_boot_delay", "ablation_chunk_size",
      "ablation_geo",        "ablation_hetero",
      "ablation_p2p_cap",    "ablation_prediction",
      "stress_flash_churn",  "regional_outage",
      "outage_transient",    "ablation_pooling",
  };
  EXPECT_GE(golden_presets().size(), 15u);
  EXPECT_EQ(golden_presets().size(), std::size(kExpected));
  for (const char* name : kExpected) {
    SCOPED_TRACE(name);
    EXPECT_NO_THROW((void)golden_preset(name));
  }
}

// The composed preset really is a composite: its spec names an expression
// the catalog resolves into the two parts' concatenated ops.
TEST(Goldens, ComposedPresetResolvesThroughTheAlgebra) {
  const GoldenPreset& preset = golden_preset("stress_flash_churn");
  EXPECT_EQ(preset.spec.scenario, "flash_crowd+churn_heavy");
  const Scenario resolved =
      ScenarioCatalog::global().resolve(preset.spec.scenario);
  EXPECT_EQ(resolved.ops.size(),
            ScenarioCatalog::global().at("flash_crowd").ops.size() +
                ScenarioCatalog::global().at("churn_heavy").ops.size());
}

// The tentpole acceptance bar: in-process runs of every preset match the
// committed snapshots exactly, on one thread and on many.
TEST(Goldens, EveryPresetMatchesCommittedSnapshotByteForByte) {
  for (const GoldenPreset& preset : golden_presets()) {
    SCOPED_TRACE(preset.name);
    SweepSpec spec = preset.spec;
    spec.threads = 1;
    const SweepResult serial = SweepRunner::run(spec);
    spec.threads = 8;
    const SweepResult parallel = SweepRunner::run(spec);

    const std::string csv = serial.to_csv();
    const std::string json = serial.to_json().dump(2) + "\n";
    EXPECT_EQ(csv, parallel.to_csv());
    EXPECT_EQ(json, parallel.to_json().dump(2) + "\n");
    EXPECT_EQ(csv, read_file(golden_path(preset.name, "csv")));
    EXPECT_EQ(json, read_file(golden_path(preset.name, "json")));
  }
}

// The same guarantee through the diff pipeline: a fresh run diffed against
// the committed JSON reports zero deltas, exercising the JSON parser and
// cell matching end to end.
TEST(Goldens, DiffAgainstCommittedSnapshotIsClean) {
  const GoldenPreset& preset = golden_preset("sweep_demo");
  SweepSpec spec = preset.spec;
  spec.threads = 2;
  const SweepResult result = SweepRunner::run(spec);
  const util::JsonValue committed =
      util::JsonValue::parse(read_file(golden_path(preset.name, "json")));
  const SweepDiff diff = diff_sweeps(result.to_json(), committed);
  EXPECT_TRUE(diff.identical()) << diff.report();
  EXPECT_EQ(diff.cells_compared, result.runs.size());
  EXPECT_GT(diff.metrics_compared, 0u);
}

// And the negative control: a perturbed seed must surface as non-zero
// per-cell deltas plus a seed mismatch, never as a silent pass.
TEST(Goldens, DiffReportsPerturbedSeed) {
  const GoldenPreset& preset = golden_preset("sweep_demo");
  SweepSpec spec = preset.spec;
  spec.threads = 2;
  spec.base_seed = kGoldenSeed + 1;
  const SweepResult perturbed = SweepRunner::run(spec);
  const util::JsonValue committed =
      util::JsonValue::parse(read_file(golden_path(preset.name, "json")));
  const SweepDiff diff = diff_sweeps(perturbed.to_json(), committed);
  EXPECT_FALSE(diff.identical());
  EXPECT_GT(diff.num_deltas(), 0u);
  ASSERT_FALSE(diff.cells.empty());
  EXPECT_TRUE(diff.cells.front().seed_mismatch);
  EXPECT_FALSE(diff.notes.empty());  // base_seed header mismatch
  const std::string report = diff.report();
  EXPECT_NE(report.find("DIFFERS"), std::string::npos);
}

}  // namespace
}  // namespace cloudmedia::sweep
