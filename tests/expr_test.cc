#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "expr/figures.h"
#include "expr/flags.h"
#include "expr/paper.h"
#include "sweep/goldens.h"
#include "util/check.h"

namespace cloudmedia::expr {
namespace {

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesEqualsForm) {
  const Flags f = make_flags({"--hours=24", "--seed=7"});
  EXPECT_EQ(f.get("hours", 0.0), 24.0);
  EXPECT_EQ(f.get("seed", 0), 7);
}

TEST(Flags, ParsesSpaceForm) {
  const Flags f = make_flags({"--hours", "12"});
  EXPECT_EQ(f.get("hours", 0.0), 12.0);
}

TEST(Flags, BareFlagIsTrue) {
  const Flags f = make_flags({"--verbose"});
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_TRUE(f.get("verbose", false));
}

TEST(Flags, FallbacksWhenMissing) {
  const Flags f = make_flags({});
  EXPECT_EQ(f.get("hours", 100.0), 100.0);
  EXPECT_EQ(f.get("name", std::string("x")), "x");
  EXPECT_FALSE(f.get("flag", false));
  EXPECT_EQ(f.get_ll("seed", 42), 42);
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(make_flags({"--a=true"}).get("a", false));
  EXPECT_TRUE(make_flags({"--a=1"}).get("a", false));
  EXPECT_TRUE(make_flags({"--a=yes"}).get("a", false));
  EXPECT_FALSE(make_flags({"--a=no"}).get("a", true));
  EXPECT_FALSE(make_flags({"--a=false"}).get("a", true));
  EXPECT_FALSE(make_flags({"--a=0"}).get("a", true));
  // A typo is an error, not a silent false.
  try {
    (void)make_flags({"--p2p=ture"}).get("p2p", false);
    FAIL() << "--p2p=ture should not parse";
  } catch (const util::PreconditionError& e) {
    EXPECT_STREQ(e.what(), "--p2p expects true/false/1/0/yes/no, got 'ture'");
  }
}

TEST(Flags, NumericGettersParseTheWholeToken) {
  const Flags f = make_flags({"--hours=abc", "--warmup=2x", "--threads=x",
                              "--seed=7.5", "--big=99999999999", "--bare"});
  const auto message = [&f](auto get) -> std::string {
    try {
      get(f);
    } catch (const util::PreconditionError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(message([](const Flags& g) { (void)g.get("hours", 1.0); }),
            "--hours expects a number, got 'abc'");
  // std::stod alone would read "2x" as 2.
  EXPECT_EQ(message([](const Flags& g) { (void)g.get("warmup", 1.0); }),
            "--warmup expects a number, got '2x'");
  EXPECT_EQ(message([](const Flags& g) { (void)g.get_ll("threads", 1); }),
            "--threads expects an integer, got 'x'");
  EXPECT_EQ(message([](const Flags& g) { (void)g.get_ll("seed", 1); }),
            "--seed expects an integer, got '7.5'");
  EXPECT_EQ(message([](const Flags& g) { (void)g.get("big", 1); }),
            "--big expects an integer, got '99999999999'");
  EXPECT_EQ(message([](const Flags& g) { (void)g.get("bare", 1.0); }),
            "--bare expects a number, got 'true'");
  const Flags ok = make_flags({"--rate=1e3", "--seed=-3"});
  EXPECT_EQ(ok.get("rate", 0.0), 1000.0);
  EXPECT_EQ(ok.get_ll("seed", 0), -3);
}

TEST(Flags, UnsignedGetterTakesTheWholeSeedRange) {
  const auto message = [](const std::string& value) -> std::string {
    try {
      const std::string arg = "--seed=" + value;
      (void)make_flags({arg.c_str()}).get_u64("seed", 1);
    } catch (const util::PreconditionError& e) {
      return e.what();
    }
    return "no error";
  };
  // A sign is refused, not wrapped to 2^64 - 3.
  EXPECT_EQ(message("-3"), "--seed expects an unsigned integer, got '-3'");
  EXPECT_EQ(message("+3"), "--seed expects an unsigned integer, got '+3'");
  EXPECT_EQ(message("18446744073709551616"),
            "--seed expects an unsigned integer, got '18446744073709551616'");
  EXPECT_EQ(make_flags({"--seed=18446744073709551615"}).get_u64("seed", 1),
            18446744073709551615ULL);
  EXPECT_EQ(make_flags({}).get_u64("seed", 42), 42U);
}

TEST(Flags, RejectsPositionalArguments) {
  EXPECT_THROW(make_flags({"positional"}), std::invalid_argument);
}

TEST(Flags, CollectsPositionalsWhenAllowed) {
  // tool_sweep --diff a.json b.json relies on this opt-in: flags parse as
  // usual, and non-flag tokens not consumed as a `--key value` value
  // collect in order.
  const std::vector<const char*> argv{"prog", "a.json", "--tol=0.5",
                                      "b.json"};
  const Flags f(static_cast<int>(argv.size()), argv.data(),
                /*allow_positionals=*/true);
  EXPECT_EQ(f.positionals(),
            (std::vector<std::string>{"a.json", "b.json"}));
  EXPECT_EQ(f.get("tol", 0.0), 0.5);
}

TEST(Flags, SpaceFormValueIsNotAPositional) {
  const std::vector<const char*> argv{"prog", "--out", "report.json",
                                      "a.json"};
  const Flags f(static_cast<int>(argv.size()), argv.data(),
                /*allow_positionals=*/true);
  EXPECT_EQ(f.get("out", std::string()), "report.json");
  EXPECT_EQ(f.positionals(), (std::vector<std::string>{"a.json"}));
}

TEST(PaperConstants, MatchTheEvaluationSection) {
  EXPECT_DOUBLE_EQ(paper::kQualityClientServer, 0.97);
  EXPECT_DOUBLE_EQ(paper::kQualityP2p, 0.95);
  EXPECT_DOUBLE_EQ(paper::kVmCostClientServer, 48.0);
  EXPECT_DOUBLE_EQ(paper::kVmCostP2p, 4.27);
  EXPECT_DOUBLE_EQ(paper::kStorageCostPerDay, 0.018);
  EXPECT_DOUBLE_EQ(paper::kVmBootSeconds, 25.0);
  EXPECT_EQ(paper::kFig11Ratios.size(), 3u);
  EXPECT_DOUBLE_EQ(paper::kFig11Ratios[0], 0.9);
  EXPECT_DOUBLE_EQ(paper::kFig11Quality[2], 1.0);
}

/// A fresh directory under the system temp dir, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// Runs the enclosing scope with the working directory switched to a fresh
/// empty directory `name`, so a test can assert it stayed empty.
class ScopedEmptyCwd {
 public:
  explicit ScopedEmptyCwd(const std::string& name)
      : dir_(name), previous_(std::filesystem::current_path()) {
    std::filesystem::create_directories(dir_.str());
    std::filesystem::current_path(dir_.str());
  }
  ~ScopedEmptyCwd() { std::filesystem::current_path(previous_); }
  [[nodiscard]] bool still_empty() const {
    return std::filesystem::is_empty(dir_.str());
  }

 private:
  TempDir dir_;
  std::filesystem::path previous_;
};

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

TEST(Report, PrintsAndWritesCsv) {
  const TempDir dir("cloudmedia_report_test");
  const ScopedEmptyCwd cwd("cloudmedia_report_test_cwd");
  util::TimeSeries series;
  for (int i = 0; i < 10; ++i) series.add(i * 600.0, static_cast<double>(i));
  testing::internal::CaptureStdout();
  print_series_table("demo", {{"value", &series}}, 0.0, 6000.0, 3600.0,
                     dir.file("nested/demo.csv"));
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  // The CSV lands exactly where it was asked to (parents created), with
  // the printed columns as its header.
  EXPECT_EQ(first_line(dir.file("nested/demo.csv")), "hour,value");
  EXPECT_TRUE(cwd.still_empty());
}

TEST(Report, ComparisonLineFormatsBothSides) {
  testing::internal::CaptureStdout();
  print_paper_comparison("avg quality", 0.981, 0.97, "");
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("0.981"), std::string::npos);
  EXPECT_NE(out.find("0.970"), std::string::npos);
}

/// The table's figure entries (the rest are sweep ablations).
const std::set<std::string> kFigureNames = {
    "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11"};

TEST(PaperFigures, TableCoversFigures4Through11) {
  // Figures in paper order, then the sweep ablations.
  std::vector<std::string> names;
  for (const Figure& figure : paper_figures()) names.push_back(figure.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{
                "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
                "fig11", "ablation_strategies", "ablation_pooling",
                "ablation_boot_delay", "ablation_chunk_size", "ablation_geo",
                "ablation_hetero", "ablation_p2p_cap", "ablation_prediction"}));
  EXPECT_EQ(std::string(paper_figure("fig10").preset), "fig10_vm_cost");
  EXPECT_EQ(std::string(paper_figure("ablation_geo").preset), "ablation_geo");
}

TEST(PaperFigures, EveryFigureAndAblationPresetHasOneTableEntry) {
  // The table and the golden presets name the same studies: each fig*/
  // ablation_* preset is run by exactly one entry, and each entry runs a
  // preset of that kind.
  std::multiset<std::string> table;
  for (const Figure& figure : paper_figures()) table.insert(figure.preset);
  std::set<std::string> presets;
  for (const sweep::GoldenPreset& preset : sweep::golden_presets()) {
    if (preset.name.rfind("fig", 0) == 0 ||
        preset.name.rfind("ablation_", 0) == 0) {
      presets.insert(preset.name);
    }
  }
  for (const std::string& preset : presets) {
    EXPECT_EQ(table.count(preset), 1u) << preset;
  }
  for (const std::string& preset : table) {
    EXPECT_EQ(presets.count(preset), 1u) << preset;
  }
  EXPECT_EQ(table.size(), presets.size());
}

TEST(PaperFigures, UnknownFigureListsTheValidOnes) {
  try {
    (void)paper_figure("fig12");
    FAIL() << "fig12 should not resolve";
  } catch (const util::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fig12"), std::string::npos) << what;
    EXPECT_NE(what.find("fig04"), std::string::npos) << what;
    EXPECT_NE(what.find("fig11"), std::string::npos) << what;
  }
}

TEST(PaperFigures, PaperHorizonsResolveToFourDistinctSweeps) {
  // fig04 = fig05, fig06 = fig07 = fig10 and fig08 = fig09 compute the same
  // sweep at the paper's horizons; the driver runs each distinct one once.
  // Every ablation is a sweep of its own.
  const Flags none = make_flags({});
  std::set<std::string> figures;
  std::set<std::string> all;
  for (const Figure& figure : paper_figures()) {
    const std::string hash = figure_spec(figure, none).spec_hash();
    if (kFigureNames.count(figure.name) != 0) figures.insert(hash);
    all.insert(hash);
  }
  EXPECT_EQ(figures.size(), 4u);
  EXPECT_EQ(all.size(), 4u + 8u);
  EXPECT_EQ(figure_spec(paper_figure("fig04"), none).spec_hash(),
            figure_spec(paper_figure("fig05"), none).spec_hash());
  EXPECT_NE(figure_spec(paper_figure("fig05"), none).spec_hash(),
            figure_spec(paper_figure("fig10"), none).spec_hash());
}

TEST(PaperFigures, RejectsShard) {
  // A figure reads every cell of its grid: a --shard slice used to index
  // past the partial grid and segfault.
  try {
    (void)run_paper_figures(make_flags({"--hours=0.25", "--shard=1/2"}));
    FAIL() << "--shard should be rejected";
  } catch (const util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown flag"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)run_paper_figures(make_flags({"--hour=2"})),
               util::PreconditionError);
}

/// run_paper_figures on `args` plus --out-dir=`dir`, stdout swallowed
/// into `printed` when given.
std::size_t run_figures_quietly(std::vector<const char*> args,
                                const std::string& dir,
                                std::string* printed = nullptr) {
  const std::string out_dir = "--out-dir=" + dir;
  args.insert(args.begin(), "prog");
  args.push_back(out_dir.c_str());
  testing::internal::CaptureStdout();
  const std::size_t sweeps =
      run_paper_figures(Flags(static_cast<int>(args.size()), args.data()));
  const std::string out = testing::internal::GetCapturedStdout();
  if (printed != nullptr) *printed = out;
  return sweeps;
}

TEST(PaperFigures, WritesSummaryAndSeriesUnderOutDir) {
  const TempDir dir("cloudmedia_paper_figures_test");
  const ScopedEmptyCwd cwd("cloudmedia_paper_figures_test_cwd");
  // At one shared horizon, figs 4/5/6/7/10 are one mode={cs,p2p} sweep,
  // figs 8/9 one mode=p2p sweep, fig 11 its own, and so is each of the
  // eight ablations. (Fig. 7's linear fit needs at least one whole
  // measured hour.)
  EXPECT_EQ(run_figures_quietly({"--hours=1", "--warmup=0.25", "--threads=2"},
                                dir.str()),
            3u + 8u);
  EXPECT_EQ(run_figures_quietly({"--figure=fig10", "--hours=1",
                                 "--warmup=0.25", "--threads=2"},
                                dir.str()),
            1u);
  // The summary and the table data live side by side under --out-dir with
  // distinct headers; the series CSV is no longer overwritten by the
  // summary, and nothing lands in the working directory.
  for (const Figure& figure : paper_figures()) {
    const std::string base = dir.file(figure.name);
    EXPECT_EQ(first_line(base + ".csv").rfind("scenario,", 0), 0u)
        << figure.name;
    EXPECT_TRUE(std::filesystem::exists(base + ".json")) << figure.name;
    if (kFigureNames.count(figure.name) != 0) {
      EXPECT_EQ(first_line(base + ".csv").rfind("scenario,mode,", 0), 0u)
          << figure.name;
      EXPECT_NE(first_line(base + ".series.csv"), first_line(base + ".csv"))
          << figure.name;
    } else {
      EXPECT_FALSE(std::filesystem::exists(base + ".series.csv"))
          << figure.name;
    }
  }
  EXPECT_EQ(first_line(dir.file("fig04.series.csv")),
            "hour,C/S reserved,C/S used,P2P reserved,P2P used");
  EXPECT_EQ(first_line(dir.file("fig06.series.csv")),
            "mode,channel_size,quality");
  EXPECT_TRUE(cwd.still_empty());
}

TEST(PaperFigures, EveryPrintedPathExists) {
  const TempDir dir("cloudmedia_paper_figures_paths_test");
  // A leftover series file must not pass for the ablation's.
  std::filesystem::create_directories(dir.str());
  std::ofstream(dir.file("ablation_geo.series.csv")) << "stale\n";
  std::string printed;
  for (const char* figure : {"--figure=fig10", "--figure=ablation_geo"}) {
    std::string out;
    (void)run_figures_quietly({figure, "--hours=1", "--warmup=0.25"},
                              dir.str(), &out);
    printed += out;
  }
  // "[csv]  <path>" / "[json] <path>": fig10's summary pair and series
  // table, ablation_geo's summary pair only.
  std::vector<std::string> paths;
  std::istringstream lines(printed);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("[csv]  ", 0) == 0 || line.rfind("[json] ", 0) == 0) {
      paths.push_back(line.substr(7));
    }
  }
  EXPECT_EQ(paths, (std::vector<std::string>{
                       dir.file("fig10.csv"), dir.file("fig10.json"),
                       dir.file("fig10.series.csv"),
                       dir.file("ablation_geo.csv"),
                       dir.file("ablation_geo.json")}));
  for (const std::string& path : paths) {
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
  }
  EXPECT_FALSE(std::filesystem::exists(dir.file("ablation_geo.series.csv")));
}

}  // namespace
}  // namespace cloudmedia::expr
