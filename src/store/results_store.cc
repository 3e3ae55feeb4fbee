#include "store/results_store.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/check.h"
#include "util/csv.h"
#include "util/json.h"

namespace cloudmedia::store {

namespace {

/// The self-describing first line of the JSONL stream: enough to validate
/// on read-back and to identify an interrupted sweep's partial output.
util::JsonValue header_line(const sweep::SweepResult& header) {
  util::JsonValue root = util::JsonValue::object();
  root["type"] = "header";
  root["scenario"] = header.scenario;
  root["base_seed"] = std::to_string(header.base_seed);
  root["spec_hash"] = header.spec_hash;
  util::JsonValue shard = util::JsonValue::object();
  shard["index"] = static_cast<double>(header.shard_index);
  shard["count"] = static_cast<double>(header.shard_count);
  shard["total_cells"] = static_cast<double>(header.total_cells);
  root["shard"] = std::move(shard);
  root["grid"] = sweep::axes_to_json(header.axes);
  return root;
}

/// Counts a row inside push() for as long as it is there.
class InsidePush {
 public:
  explicit InsidePush(std::atomic<std::size_t>& count)
      : count_(count), now_(++count) {}
  ~InsidePush() { --count_; }
  InsidePush(const InsidePush&) = delete;
  InsidePush& operator=(const InsidePush&) = delete;
  [[nodiscard]] std::size_t now() const noexcept { return now_; }

 private:
  std::atomic<std::size_t>& count_;
  std::size_t now_;
};

}  // namespace

ResultsStore::ResultsStore(StoreOptions options, const sweep::SweepSpec& spec)
    : header_(sweep::SweepResult::from_spec(spec)),
      expected_cells_(sweep::SweepRunner::shard_cells(header_.total_cells,
                                                      spec.shard)),
      jsonl_path_(options.base + ".jsonl"),
      csv_path_(options.base + ".stream.csv") {
  CM_EXPECTS(!options.base.empty());
  util::ensure_parent_directory(jsonl_path_);
  jsonl_.open(jsonl_path_, std::ios::trunc);
  if (!jsonl_) {
    throw std::runtime_error("ResultsStore: cannot open '" + jsonl_path_ +
                             "' for writing: " + std::strerror(errno));
  }
  csv_.open(csv_path_, std::ios::trunc);
  if (!csv_) {
    throw std::runtime_error("ResultsStore: cannot open '" + csv_path_ +
                             "' for writing: " + std::strerror(errno));
  }

  jsonl_ << header_line(header_).dump(-1) << '\n';
  csv_ << "cell," << util::CsvWriter::line(header_.csv_header());
}

void ResultsStore::push(std::size_t cell, const sweep::RunSummary& row) {
  const InsidePush inside(inside_push_);
  // Format outside the lock, so concurrent workers serialize in parallel
  // and hold the mutex only for the two appends.
  const std::string jsonl_line = row.to_json(cell).dump(-1) + '\n';
  const std::string csv_line = std::to_string(cell) + ',' +
                               util::CsvWriter::line(header_.csv_row(row));

  std::lock_guard<std::mutex> lock(mutex_);
  peak_buffered_ = std::max(peak_buffered_, inside.now());
  if (error_) std::rethrow_exception(error_);
  CM_EXPECTS(!finished_);  // push after finish() is a caller bug
  jsonl_ << jsonl_line;
  csv_ << csv_line;
  note_failure_locked("write to");
  if (error_) std::rethrow_exception(error_);
  ++rows_written_;
}

std::function<void(std::size_t, sweep::RunSummary)> ResultsStore::sink() {
  return [this](std::size_t cell, sweep::RunSummary row) { push(cell, row); };
}

void ResultsStore::note_failure_locked(const char* action) {
  if (error_ || (jsonl_ && csv_)) return;
  error_ = std::make_exception_ptr(std::runtime_error(
      std::string("ResultsStore: ") + action + " '" +
      (!jsonl_ ? jsonl_path_ : csv_path_) + "' failed: " +
      std::strerror(errno)));
}

void ResultsStore::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!finished_) {
    finished_ = true;
    jsonl_.flush();
    csv_.flush();
    note_failure_locked("flush of");
    jsonl_.close();
    csv_.close();
  }
  if (error_) std::rethrow_exception(error_);
}

sweep::SweepResult ResultsStore::finalize() {
  finish();

  std::ifstream in(jsonl_path_);
  if (!in) {
    throw std::runtime_error("ResultsStore: cannot read back '" + jsonl_path_ +
                             "': " + std::strerror(errno));
  }
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("ResultsStore: '" + jsonl_path_ +
                             "' is empty — no header line");
  }
  const util::JsonValue header = util::JsonValue::parse(line);
  CM_ENSURES(header.at("type").as_string() == "header");
  CM_ENSURES(header.at("spec_hash").as_string() == header_.spec_hash);

  std::vector<std::pair<std::size_t, sweep::RunSummary>> rows;
  rows.reserve(expected_cells_.size());
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const util::JsonValue entry = util::JsonValue::parse(line);
    const auto cell = static_cast<std::size_t>(entry.at("cell").as_number());
    rows.emplace_back(cell,
                      sweep::RunSummary::from_json(entry, header_.scenario));
  }

  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (rows.size() != expected_cells_.size()) {
    throw std::runtime_error(
        "ResultsStore: '" + jsonl_path_ + "' holds " +
        std::to_string(rows.size()) + " rows but the sweep expected " +
        std::to_string(expected_cells_.size()) +
        " — was the sweep interrupted?");
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].first != expected_cells_[i]) {
      throw std::runtime_error(
          "ResultsStore: '" + jsonl_path_ + "' cell sequence broken at row " +
          std::to_string(i) + ": got cell " + std::to_string(rows[i].first) +
          ", expected " + std::to_string(expected_cells_[i]) +
          " (duplicate or missing cell)");
    }
  }

  sweep::SweepResult result = header_;
  result.runs.reserve(rows.size());
  for (auto& [cell, summary] : rows) result.runs.push_back(std::move(summary));
  return result;
}

std::size_t ResultsStore::rows_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_written_;
}

std::size_t ResultsStore::peak_buffered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_buffered_;
}

}  // namespace cloudmedia::store
