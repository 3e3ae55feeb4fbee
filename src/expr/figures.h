#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "expr/flags.h"
#include "sweep/run_summary.h"
#include "sweep/sweep_runner.h"
#include "util/stats.h"

namespace cloudmedia::expr {

/// One named series to print/export, e.g. "C/S reserved (Mbps)".
struct SeriesColumn {
  std::string name;
  const util::TimeSeries* series = nullptr;
};

/// Print aligned rows of several series, each row the mean over one
/// `bucket_seconds` window from `t0` (time column: hours since t0) — the
/// textual equivalent of a paper figure — and write the same rows to
/// `csv_path`, creating its parent directories.
void print_series_table(const std::string& title,
                        const std::vector<SeriesColumn>& columns, double t0,
                        double t_end, double bucket_seconds,
                        const std::string& csv_path);

/// Print a "label: measured vs paper" summary line.
void print_paper_comparison(const std::string& label, double measured,
                            double paper_value, const std::string& unit);

/// What a figure's report reads: its resolved spec, that spec's sweep
/// (every cell, full-resolution series), and where its table data goes
/// (an ablation has none and leaves the path unwritten).
struct FigureRun {
  const sweep::SweepSpec& spec;
  const sweep::SweepResult& result;
  const std::string& series_csv;

  /// The sweep's base seed, as the reports print it.
  [[nodiscard]] unsigned long long seed() const {
    return static_cast<unsigned long long>(spec.base_seed);
  }
};

/// One study of the paper's evaluation: a figure (Sec. VI, Figs. 4-11) or
/// a sweep ablation of one of its modelling choices. Each is the golden
/// preset it runs, widened to the paper's horizon, and the report that
/// prints its table and paper comparisons (an ablation's analytic part,
/// if any, first).
struct Figure {
  const char* name;  ///< "fig04" ... "fig11", "ablation_<preset suffix>"
  const char* preset;
  double warmup_hours;
  double measure_hours;
  void (*report)(const FigureRun& run);
};

/// Every figure in paper order, then the ablations.
[[nodiscard]] const std::vector<Figure>& paper_figures();

/// Lookup by name; throws util::PreconditionError listing the valid names.
[[nodiscard]] const Figure& paper_figure(const std::string& name);

/// The figure's sweep: its preset at the paper horizon with every run's
/// series kept, then --seed/--threads/--warmup/--hours from `flags`.
[[nodiscard]] sweep::SweepSpec figure_spec(const Figure& figure,
                                           const Flags& flags);

/// The paper-figure driver: --figure (default: the whole table), --hours,
/// --warmup, --seed, --threads, --out-dir (default results); any other flag
/// — --shard too, since a figure reads every cell of its grid — throws the
/// teaching error. Each entry writes <out-dir>/<name>.{csv,json} (the
/// summary); each figure also writes <out-dir>/<name>.series.csv (its
/// table data) from the full-resolution series; the driver prints the
/// path of every file the entry wrote. Entries whose specs have equal
/// spec_hash() share one SweepRunner::run, held only until its last reader
/// has reported; returns the number of sweeps run.
std::size_t run_paper_figures(const Flags& flags);

}  // namespace cloudmedia::expr
