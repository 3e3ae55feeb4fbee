// Streaming results store + shard merge: the distributed-sweeps acceptance
// bar. Streaming through ResultsStore must serialize byte-identically to a
// buffered run; shard outputs must partition the grid exactly and stitch
// back byte-identically at any thread count; and --merge must reject
// anything that is not the complete shard set of one sweep, with an error
// that teaches the fix.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "store/results_store.h"
#include "store/shard_merge.h"
#include "sweep/param_grid.h"
#include "sweep/run_summary.h"
#include "sweep/sweep_runner.h"
#include "testing/seeds.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/rss.h"

namespace cloudmedia::store {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The canonical small sweep: 2x2 grid, short horizon, golden seed. Cheap
/// enough to run several times per test, rich enough that every cell's
/// summary differs.
sweep::SweepSpec small_spec(unsigned threads = 1) {
  sweep::SweepSpec spec;
  spec.scenario = "flash_crowd";
  spec.grid.add_axis("channels", {"3", "5"});
  spec.grid.add_axis("mode", {"cs", "p2p"});
  spec.base_seed = testing::kGoldenSeed;
  spec.threads = threads;
  spec.warmup_hours = 0.05;
  spec.measure_hours = 0.2;
  return spec;
}

/// Run one shard of `spec` streaming through a ResultsStore, as tool_sweep
/// does, and return the finalized shard result.
sweep::SweepResult run_shard(sweep::SweepSpec spec, std::size_t k,
                             std::size_t n, const std::string& base) {
  spec.shard = sweep::ShardSpec{k, n};
  StoreOptions options;
  options.base = base;
  ResultsStore results_store(options, spec);
  spec.sink = results_store.sink();
  (void)sweep::SweepRunner::run(spec);
  return results_store.finalize();
}

// --------------------------------------------------------- ResultsStore

TEST(ResultsStore, StreamingMatchesBufferedByteForByte) {
  const sweep::SweepResult buffered = sweep::SweepRunner::run(small_spec());

  // Four workers on a 4-cell sweep: push() runs concurrently, and the
  // rows still reassemble into the buffered bytes.
  sweep::SweepSpec spec = small_spec(4);
  ResultsStore results_store({.base = temp_path("store_test_stream")}, spec);
  spec.sink = results_store.sink();
  (void)sweep::SweepRunner::run(spec);
  const sweep::SweepResult streamed = results_store.finalize();

  EXPECT_EQ(streamed.to_csv(), buffered.to_csv());
  EXPECT_EQ(streamed.to_json().dump(), buffered.to_json().dump());
  EXPECT_EQ(results_store.rows_written(), 4u);
  // A row is resident only inside push(): at most one per worker.
  EXPECT_GE(results_store.peak_buffered(), 1u);
  EXPECT_LE(results_store.peak_buffered(), 4u);
}

TEST(ResultsStore, StreamFilesCarryHeaderAndEveryRow) {
  sweep::SweepSpec spec = small_spec();
  ResultsStore results_store({.base = temp_path("store_test_files")}, spec);
  spec.sink = results_store.sink();
  (void)sweep::SweepRunner::run(spec);
  results_store.finish();

  // JSONL: header line first, then one row per cell with a "cell" tag.
  std::ifstream jsonl(results_store.jsonl_path());
  ASSERT_TRUE(jsonl.good());
  std::string line;
  ASSERT_TRUE(std::getline(jsonl, line));
  const util::JsonValue header = util::JsonValue::parse(line);
  EXPECT_EQ(header.at("type").as_string(), "header");
  EXPECT_EQ(header.at("scenario").as_string(), "flash_crowd");
  EXPECT_EQ(header.at("spec_hash").as_string(), small_spec().spec_hash());
  std::set<std::size_t> cells;
  while (std::getline(jsonl, line)) {
    const util::JsonValue row = util::JsonValue::parse(line);
    cells.insert(static_cast<std::size_t>(row.at("cell").as_number()));
    EXPECT_GT(row.at("sim_events").as_number(), 0.0);
  }
  EXPECT_EQ(cells, (std::set<std::size_t>{0, 1, 2, 3}));

  // Stream CSV: header plus one completion-order row per cell.
  std::ifstream csv(results_store.stream_csv_path());
  ASSERT_TRUE(csv.good());
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line.rfind("cell,scenario,", 0), 0u);
  std::size_t rows = 0;
  while (std::getline(csv, line)) rows += !line.empty();
  EXPECT_EQ(rows, 4u);
}

TEST(ResultsStore, FinalizeRejectsInterruptedStream) {
  sweep::SweepSpec spec = small_spec();
  StoreOptions options;
  options.base = temp_path("store_test_interrupted");
  ResultsStore results_store(options, spec);
  // Push only one of the four expected rows, as if the sweep died.
  sweep::RunSummary row;
  row.scenario = spec.scenario;
  row.point = spec.grid.point(0);
  results_store.push(0, row);
  results_store.finish();
  try {
    (void)results_store.finalize();
    FAIL() << "finalize() accepted a truncated stream";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("interrupted"), std::string::npos);
  }
}

TEST(ResultsStore, CreatesMissingParentDirectories) {
  const std::string root = temp_path("store_test_nested");
  std::filesystem::remove_all(root);
  sweep::SweepSpec spec = small_spec();
  StoreOptions options;
  options.base = root + "/a/b/run";
  ResultsStore results_store(options, spec);
  spec.sink = results_store.sink();
  (void)sweep::SweepRunner::run(spec);
  results_store.finish();
  EXPECT_TRUE(std::filesystem::exists(root + "/a/b/run.jsonl"));
  EXPECT_TRUE(std::filesystem::exists(root + "/a/b/run.stream.csv"));
  std::filesystem::remove_all(root);
}

TEST(ResultsStore, UnwritablePathFailsNamingThePath) {
  // A regular file where a directory component should be: mkdir fails.
  const std::string blocker = temp_path("store_test_blocker");
  std::ofstream(blocker) << "not a directory\n";
  sweep::SweepSpec spec = small_spec();
  StoreOptions options;
  options.base = blocker + "/sub/run";
  try {
    ResultsStore results_store(options, spec);
    FAIL() << "ResultsStore opened an output under a regular file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(blocker), std::string::npos);
  }
  std::filesystem::remove(blocker);
}

TEST(ResultsStore, WriteFailureIsStickyAndSurfacesThroughTheSweep) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "needs /dev/full";
  }
  const std::string base = temp_path("store_test_full");
  const std::string jsonl = base + ".jsonl";
  std::filesystem::remove(jsonl);
  std::filesystem::create_symlink("/dev/full", jsonl);
  sweep::SweepSpec spec = small_spec();
  ResultsStore results_store({.base = base}, spec);

  // Every append fails once the stream's buffer spills onto the full
  // device (or at the latest when finish() flushes it). The error names
  // the file.
  sweep::RunSummary row;
  row.scenario = spec.scenario;
  row.point = spec.grid.point(0);
  std::string first;
  try {
    for (int i = 0; i < 1000; ++i) results_store.push(0, row);
    results_store.finish();
    FAIL() << "writing to /dev/full did not fail";
  } catch (const std::runtime_error& e) {
    first = e.what();
  }
  EXPECT_NE(first.find(jsonl), std::string::npos) << first;

  // Every later push() and finish() rethrows that same error...
  const auto expect_first = [&](const std::function<void()>& call) {
    try {
      call();
      ADD_FAILURE() << "a failed store accepted a later call";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), first);
    }
  };
  expect_first([&] { results_store.push(1, row); });
  expect_first([&] { results_store.finish(); });
  expect_first([&] { results_store.finish(); });
  // ...and a sweep streaming into the store surfaces it.
  spec.sink = results_store.sink();
  expect_first([&] { (void)sweep::SweepRunner::run(spec); });
  std::filesystem::remove(jsonl);
}

TEST(ResultsStore, SinkAndKeepResultsAreMutuallyExclusive) {
  sweep::SweepSpec spec = small_spec();
  spec.keep_results = true;
  spec.sink = [](std::size_t, sweep::RunSummary) {};
  EXPECT_THROW((void)sweep::SweepRunner::run(spec), util::PreconditionError);
}

// ----------------------------------------------------------- shard merge

TEST(ShardMerge, TwoAndFourShardsStitchByteIdentically) {
  const sweep::SweepResult whole = sweep::SweepRunner::run(small_spec());
  for (const std::size_t n : {2u, 4u}) {
    for (const unsigned threads : {1u, 8u}) {
      std::vector<util::JsonValue> docs;
      for (std::size_t k = 0; k < n; ++k) {
        const sweep::SweepResult shard = run_shard(
            small_spec(threads), k, n,
            temp_path("store_test_shard" + std::to_string(k)));
        docs.push_back(shard.to_json());
      }
      const sweep::SweepResult merged = merge_shards(docs);
      EXPECT_EQ(merged.to_json().dump(), whole.to_json().dump())
          << n << " shards at " << threads << " threads";
      EXPECT_EQ(merged.to_csv(), whole.to_csv());
    }
  }
}

TEST(ShardMerge, MergeShardFilesRoundTripsThroughDisk) {
  const sweep::SweepResult whole = sweep::SweepRunner::run(small_spec());
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < 2; ++k) {
    const std::string base = temp_path("store_test_file_shard" +
                                       std::to_string(k));
    const sweep::SweepResult shard = run_shard(small_spec(), k, 2, base);
    paths.push_back(base + ".json");
    util::write_json_file(paths.back(), shard.to_json());
  }
  const sweep::SweepResult merged = merge_shard_files(paths);
  EXPECT_EQ(merged.to_json().dump(), whole.to_json().dump());
  for (const std::string& path : paths) std::filesystem::remove(path);
}

TEST(ShardMerge, MoreShardsThanCellsStillCoversTheGrid) {
  // 7-way split of a 4-cell grid: shards 4..6 are legitimately empty.
  const sweep::SweepResult whole = sweep::SweepRunner::run(small_spec());
  std::vector<util::JsonValue> docs;
  for (std::size_t k = 0; k < 7; ++k) {
    docs.push_back(
        run_shard(small_spec(), k, 7,
                  temp_path("store_test_wide" + std::to_string(k)))
            .to_json());
  }
  const sweep::SweepResult merged = merge_shards(docs);
  EXPECT_EQ(merged.to_json().dump(), whole.to_json().dump());
}

/// Expect merge_shards(docs) to throw a PreconditionError mentioning
/// `fragment`.
void expect_merge_error(const std::vector<util::JsonValue>& docs,
                        const std::string& fragment) {
  try {
    (void)merge_shards(docs);
    FAIL() << "merge accepted inputs that should fail: " << fragment;
  } catch (const util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(ShardMerge, RejectsIncompatibleShardSets) {
  std::vector<util::JsonValue> docs;
  for (std::size_t k = 0; k < 2; ++k) {
    docs.push_back(
        run_shard(small_spec(), k, 2,
                  temp_path("store_test_rej" + std::to_string(k)))
            .to_json());
  }

  // Tampered base seed: mixing different workloads.
  std::vector<util::JsonValue> tampered = docs;
  tampered[1]["base_seed"] = std::string("999");
  expect_merge_error(tampered, "seed");

  // Tampered scenario.
  tampered = docs;
  tampered[1]["scenario"] = std::string("baseline_diurnal");
  expect_merge_error(tampered, "scenario");

  // Tampered spec hash (e.g. a different horizon).
  tampered = docs;
  tampered[1]["shard"]["spec_hash"] = std::string("0000000000000000");
  expect_merge_error(tampered, "spec hash");

  // A different grid: same shape, different axis values (checked before
  // the spec hash, which of course also differs).
  sweep::SweepSpec other = small_spec();
  other.grid = sweep::ParamGrid();
  other.grid.add_axis("channels", {"3", "6"});
  other.grid.add_axis("mode", {"cs", "p2p"});
  other.shard = sweep::ShardSpec{1, 2};
  {
    StoreOptions options;
    options.base = temp_path("store_test_rej_grid");
    ResultsStore results_store(options, other);
    other.sink = results_store.sink();
    (void)sweep::SweepRunner::run(other);
    tampered = docs;
    tampered[1] = results_store.finalize().to_json();
  }
  expect_merge_error(tampered, "grid");

  // The same shard twice.
  expect_merge_error({docs[0], docs[0]}, "more than once");

  // A missing shard.
  expect_merge_error({docs[0]}, "exactly one");

  // A shard header whose index is not below its count names the document
  // instead of tripping an internal precondition.
  tampered = docs;
  tampered[1]["shard"]["index"] = 2.0;
  expect_merge_error(tampered, "shard document #1 claims to be shard 2/2");

  // An unsharded document has nothing to stitch.
  const sweep::SweepResult whole = sweep::SweepRunner::run(small_spec());
  expect_merge_error({whole.to_json(), whole.to_json()}, "no shard header");

  // Not a sweep document at all.
  expect_merge_error({util::JsonValue::parse("{\"x\":1}"),
                      util::JsonValue::parse("{\"x\":1}")},
                     "not a sweep output");
}

// ------------------------------------------------------------------ util

TEST(Util, EnsureParentDirectoryCreatesNestedAndNamesFailures) {
  const std::string root = temp_path("store_test_parents");
  std::filesystem::remove_all(root);
  util::ensure_parent_directory(root + "/x/y/z.csv");
  EXPECT_TRUE(std::filesystem::is_directory(root + "/x/y"));
  // No directory component: nothing to create, nothing to throw.
  EXPECT_NO_THROW(util::ensure_parent_directory("bare_name.csv"));
  // A file blocking the directory path is an error naming the path.
  std::ofstream(root + "/x/y/file") << "block\n";
  try {
    util::ensure_parent_directory(root + "/x/y/file/sub/out.csv");
    FAIL() << "ensure_parent_directory tunneled through a regular file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(root + "/x/y/file"),
              std::string::npos);
  }
  std::filesystem::remove_all(root);
}

TEST(Util, RssProbesReturnPlausibleValues) {
  const double peak = util::peak_rss_mb();
  const double current = util::current_rss_mb();
  EXPECT_GT(peak, 0.0);
  EXPECT_GT(current, 0.0);
  // getrusage's high-water can never sit below what is resident right now
  // (allow slack for /proc sampling granularity).
  EXPECT_LE(current, peak * 1.5 + 16.0);
}

}  // namespace
}  // namespace cloudmedia::store
