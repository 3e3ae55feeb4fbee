#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sweep/run_summary.h"
#include "sweep/sweep_runner.h"

namespace cloudmedia::store {

/// Where one ResultsStore writes. `base` is the output stem: the store
/// streams `<base>.jsonl` (one row per line, plus a header line) and
/// `<base>.stream.csv` (completion-order rows with a leading `cell`
/// column) while the sweep runs.
struct StoreOptions {
  std::string base;
};

/// Write-through results store — the streaming alternative to buffering a
/// whole SweepResult in RAM. Worker threads push completed RunSummary
/// rows; each push() formats its row and appends it to disk (CSV + JSONL)
/// under one mutex, so the store never holds a row after push() returns.
/// Rows land on disk in completion order, each tagged with its global
/// grid cell, so finalize() can reassemble the deterministic grid-order
/// output afterwards.
///
///   store::ResultsStore store({.base = "results/big"}, spec);
///   sweep::SweepSpec streaming = spec;
///   streaming.sink = store.sink();
///   (void)sweep::SweepRunner::run(streaming);   // runs come back empty
///   sweep::SweepResult result = store.finalize();  // grid order, exact
///
/// finalize()'s result serializes byte-identically to a buffered
/// SweepRunner::run of the same spec — the property the golden gate and
/// the shard --merge path stand on.
class ResultsStore {
 public:
  /// Opens the output files (creating missing parent directories — throws
  /// std::runtime_error naming the path when it cannot) and writes the
  /// JSONL and CSV headers. The spec provides the header metadata
  /// (scenario, seed, grid, shard, spec hash) and the expected cell set.
  ResultsStore(StoreOptions options, const sweep::SweepSpec& spec);

  ResultsStore(const ResultsStore&) = delete;
  ResultsStore& operator=(const ResultsStore&) = delete;

  /// Append one completed row to both files. Thread-safe. The first write
  /// or flush failure (e.g. disk full) throws std::runtime_error naming
  /// the file, and every later push() or finish() rethrows it, so the
  /// sweep aborts instead of silently dropping rows.
  void push(std::size_t cell, const sweep::RunSummary& row);

  /// Adapter for SweepSpec::sink.
  [[nodiscard]] std::function<void(std::size_t, sweep::RunSummary)> sink();

  /// Flush and close the files. Idempotent. Rethrows any I/O error.
  void finish();

  /// After finish(): read `<base>.jsonl` back, verify every expected cell
  /// arrived exactly once, and reassemble the rows in global grid order.
  /// Only scalar rows are ever resident — series never existed here.
  [[nodiscard]] sweep::SweepResult finalize();

  [[nodiscard]] const std::string& jsonl_path() const noexcept {
    return jsonl_path_;
  }
  [[nodiscard]] const std::string& stream_csv_path() const noexcept {
    return csv_path_;
  }
  /// Rows appended to the files so far.
  [[nodiscard]] std::size_t rows_written() const;
  /// High-water mark of rows inside push() at once (at most one per
  /// sweep worker).
  [[nodiscard]] std::size_t peak_buffered() const;

 private:
  /// Record a failed stream as the store's error (the first one sticks).
  void note_failure_locked(const char* action);

  sweep::SweepResult header_;  ///< runs empty; metadata + csv_row helper
  std::vector<std::size_t> expected_cells_;
  std::string jsonl_path_;
  std::string csv_path_;
  std::atomic<std::size_t> inside_push_{0};

  mutable std::mutex mutex_;  ///< guards the files and the fields below
  std::ofstream jsonl_;
  std::ofstream csv_;
  std::exception_ptr error_;  ///< first I/O failure, rethrown from then on
  bool finished_ = false;
  std::size_t rows_written_ = 0;
  std::size_t peak_buffered_ = 0;
};

}  // namespace cloudmedia::store
