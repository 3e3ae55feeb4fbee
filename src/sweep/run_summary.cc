#include "sweep/run_summary.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "sweep/sweep_runner.h"
#include "util/check.h"
#include "util/csv.h"

namespace cloudmedia::sweep {

RunSummary RunSummary::from_result(std::string scenario, GridPoint point,
                                   std::uint64_t seed,
                                   const expr::ExperimentResult& r) {
  RunSummary s;
  s.scenario = std::move(scenario);
  s.point = std::move(point);
  s.seed = seed;
  const double t0 = r.measure_start;
  const double t1 = r.measure_end;
  s.mean_quality = r.mean_quality();
  s.p95_quality = r.metrics.quality.percentile_over(t0, t1, 95.0);
  s.p05_quality = r.metrics.quality.percentile_over(t0, t1, 5.0);
  s.mean_reserved_mbps = r.mean_reserved_mbps();
  s.mean_used_cloud_mbps = r.mean_used_cloud_mbps();
  s.mean_used_peer_mbps = r.mean_used_peer_mbps();
  s.cost_per_hour = r.mean_vm_cost_rate() + r.mean_storage_cost_rate();
  s.covered_fraction = r.reserved_covers_used_fraction();
  s.peak_users = r.metrics.concurrent_users.max_over(t0, t1);
  s.mean_users = r.mean_concurrent_users();
  s.arrivals = r.metrics.counters.arrivals;
  s.sim_events = r.sim_events;
  return s;
}

namespace {

const char* const kMetricColumns[] = {
    "mean_quality",        "p95_quality",          "p05_quality",
    "mean_reserved_mbps",  "mean_used_cloud_mbps", "mean_used_peer_mbps",
    "cost_per_hour",       "covered_fraction",     "peak_users",
    "mean_users",          "arrivals",             "sim_events",
};

std::vector<std::string> metric_values(const RunSummary& run) {
  return {
      util::format_number(run.mean_quality),
      util::format_number(run.p95_quality),
      util::format_number(run.p05_quality),
      util::format_number(run.mean_reserved_mbps),
      util::format_number(run.mean_used_cloud_mbps),
      util::format_number(run.mean_used_peer_mbps),
      util::format_number(run.cost_per_hour),
      util::format_number(run.covered_fraction),
      util::format_number(run.peak_users),
      util::format_number(run.mean_users),
      std::to_string(run.arrivals),
      std::to_string(run.sim_events),
  };
}

}  // namespace

util::JsonValue axes_to_json(const std::vector<ParamAxis>& axes) {
  util::JsonValue grid = util::JsonValue::array();
  for (const ParamAxis& axis : axes) {
    util::JsonValue entry = util::JsonValue::object();
    entry["name"] = axis.name;
    util::JsonValue values = util::JsonValue::array();
    for (const std::string& value : axis.values) values.push_back(value);
    entry["values"] = std::move(values);
    grid.push_back(std::move(entry));
  }
  return grid;
}

SweepResult SweepResult::from_spec(const SweepSpec& spec) {
  SweepResult result;
  result.scenario = spec.scenario;
  result.base_seed = spec.base_seed;
  result.axes = spec.grid.axes();
  result.shard_index = spec.shard.index;
  result.shard_count = spec.shard.count;
  result.total_cells = spec.grid.num_points();
  result.spec_hash = spec.spec_hash();
  if (!spec.shard.whole()) {
    result.cell_indices =
        SweepRunner::shard_cells(result.total_cells, spec.shard);
  }
  return result;
}

std::vector<std::string> SweepResult::csv_header() const {
  std::vector<std::string> header;
  header.emplace_back("scenario");
  for (const ParamAxis& axis : axes) header.push_back(axis.name);
  header.emplace_back("seed");
  for (const char* column : kMetricColumns) header.emplace_back(column);
  return header;
}

std::vector<std::string> SweepResult::csv_row(const RunSummary& run) const {
  CM_EXPECTS(run.point.coords.size() == axes.size());
  std::vector<std::string> row;
  row.push_back(run.scenario);
  for (const auto& [name, value] : run.point.coords) row.push_back(value);
  row.push_back(std::to_string(run.seed));
  for (std::string& value : metric_values(run)) row.push_back(std::move(value));
  return row;
}

std::string SweepResult::to_csv() const {
  std::string out = util::CsvWriter::line(csv_header());
  for (const RunSummary& run : runs) out += util::CsvWriter::line(csv_row(run));
  return out;
}

util::JsonValue RunSummary::to_json(std::optional<std::size_t> cell) const {
  util::JsonValue entry = util::JsonValue::object();
  if (cell) entry["cell"] = static_cast<double>(*cell);
  util::JsonValue params = util::JsonValue::object();
  for (const auto& [name, value] : point.coords) params[name] = value;
  entry["params"] = std::move(params);
  entry["seed"] = std::to_string(seed);
  entry["mean_quality"] = mean_quality;
  entry["p95_quality"] = p95_quality;
  entry["p05_quality"] = p05_quality;
  entry["mean_reserved_mbps"] = mean_reserved_mbps;
  entry["mean_used_cloud_mbps"] = mean_used_cloud_mbps;
  entry["mean_used_peer_mbps"] = mean_used_peer_mbps;
  entry["cost_per_hour"] = cost_per_hour;
  entry["covered_fraction"] = covered_fraction;
  entry["peak_users"] = peak_users;
  entry["mean_users"] = mean_users;
  entry["arrivals"] = static_cast<double>(arrivals);
  entry["sim_events"] = static_cast<double>(sim_events);
  return entry;
}

RunSummary RunSummary::from_json(const util::JsonValue& entry,
                                 std::string scenario) {
  RunSummary s;
  s.scenario = std::move(scenario);
  for (const auto& [name, value] : entry.at("params").members()) {
    s.point.coords.emplace_back(name, value.as_string());
  }
  s.seed = std::stoull(entry.at("seed").as_string());
  s.mean_quality = entry.at("mean_quality").as_number();
  s.p95_quality = entry.at("p95_quality").as_number();
  s.p05_quality = entry.at("p05_quality").as_number();
  s.mean_reserved_mbps = entry.at("mean_reserved_mbps").as_number();
  s.mean_used_cloud_mbps = entry.at("mean_used_cloud_mbps").as_number();
  s.mean_used_peer_mbps = entry.at("mean_used_peer_mbps").as_number();
  s.cost_per_hour = entry.at("cost_per_hour").as_number();
  s.covered_fraction = entry.at("covered_fraction").as_number();
  s.peak_users = entry.at("peak_users").as_number();
  s.mean_users = entry.at("mean_users").as_number();
  s.arrivals = static_cast<long>(entry.at("arrivals").as_number());
  s.sim_events = static_cast<std::uint64_t>(entry.at("sim_events").as_number());
  return s;
}

util::JsonValue SweepResult::to_json() const {
  util::JsonValue root = util::JsonValue::object();
  root["scenario"] = scenario;
  // Decimal string: 64-bit seeds do not survive a double round-trip.
  root["base_seed"] = std::to_string(base_seed);
  if (shard_count > 1) {
    // Only shard outputs carry the header — unsharded documents (and the
    // committed goldens/) keep the pre-shard byte layout.
    util::JsonValue shard = util::JsonValue::object();
    shard["index"] = static_cast<double>(shard_index);
    shard["count"] = static_cast<double>(shard_count);
    shard["cells"] = static_cast<double>(runs.size());
    shard["total_cells"] = static_cast<double>(total_cells);
    shard["spec_hash"] = spec_hash;
    root["shard"] = std::move(shard);
  }
  root["grid"] = axes_to_json(axes);
  if (shard_count > 1) CM_EXPECTS(cell_indices.size() == runs.size());
  util::JsonValue run_array = util::JsonValue::array();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::optional<std::size_t> cell;
    if (shard_count > 1) cell = cell_indices[i];
    run_array.push_back(runs[i].to_json(cell));
  }
  root["runs"] = std::move(run_array);
  return root;
}

SweepResult SweepResult::from_json(const util::JsonValue& doc) {
  SweepResult r;
  r.scenario = doc.at("scenario").as_string();
  r.base_seed = std::stoull(doc.at("base_seed").as_string());
  for (const util::JsonValue& entry : doc.at("grid").items()) {
    ParamAxis axis;
    axis.name = entry.at("name").as_string();
    for (const util::JsonValue& value : entry.at("values").items()) {
      axis.values.push_back(value.as_string());
    }
    r.axes.push_back(std::move(axis));
  }
  if (const util::JsonValue* shard = doc.find("shard")) {
    r.shard_index = static_cast<std::size_t>(shard->at("index").as_number());
    r.shard_count = static_cast<std::size_t>(shard->at("count").as_number());
    r.total_cells =
        static_cast<std::size_t>(shard->at("total_cells").as_number());
    r.spec_hash = shard->at("spec_hash").as_string();
  }
  for (const util::JsonValue& entry : doc.at("runs").items()) {
    if (r.shard_count > 1) {
      r.cell_indices.push_back(
          static_cast<std::size_t>(entry.at("cell").as_number()));
    }
    r.runs.push_back(RunSummary::from_json(entry, r.scenario));
  }
  if (r.total_cells == 0) r.total_cells = r.runs.size();
  return r;
}

void SweepResult::write_csv(const std::string& path) const {
  util::ensure_parent_directory(path);
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("SweepResult: cannot open '" + path +
                             "' for writing: " + std::strerror(errno));
  }
  out << to_csv();
  if (!out) {
    throw std::runtime_error("SweepResult: write to '" + path +
                             "' failed: " + std::strerror(errno));
  }
}

void SweepResult::write_json(const std::string& path) const {
  util::write_json_file(path, to_json());
}

void SweepResult::write(const std::string& base) const {
  write_csv(base + ".csv");
  write_json(base + ".json");
}

}  // namespace cloudmedia::sweep
