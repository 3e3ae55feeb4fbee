#include "sweep/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"

namespace cloudmedia::sweep {

namespace {

[[noreturn]] void fail_shard_syntax(const std::string& text) {
  throw util::PreconditionError(
      "shard must be k/N with integers 0 <= k < N — shard 0/2 and 1/2 "
      "together cover the grid (given '" +
      text + "')");
}

/// Parse a base-10 std::size_t spanning exactly [begin, end); no sign, no
/// whitespace, no stray characters.
bool parse_size(const std::string& text, std::size_t begin, std::size_t end,
                std::size_t& out) {
  if (begin >= end) return false;
  std::size_t value = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (!std::isdigit(c)) return false;
    if (value > (static_cast<std::size_t>(-1) - (c - '0')) / 10) return false;
    value = value * 10 + (c - '0');
  }
  out = value;
  return true;
}

}  // namespace

unsigned default_threads() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

ShardSpec ShardSpec::parse(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) fail_shard_syntax(text);
  ShardSpec shard;
  if (!parse_size(text, 0, slash, shard.index) ||
      !parse_size(text, slash + 1, text.size(), shard.count)) {
    fail_shard_syntax(text);
  }
  if (shard.count < 1 || shard.index >= shard.count) fail_shard_syntax(text);
  return shard;
}

std::string ShardSpec::label() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

void SweepSpec::apply_flags(const expr::Flags& flags) {
  base_seed = flags.get_u64("seed", base_seed);
  const long long requested =
      flags.get_ll("threads", static_cast<long long>(threads));
  if (requested < 0 || requested > 1024) {
    throw util::PreconditionError(
        "--threads must be in [0, 1024] (0 = hardware)");
  }
  threads = static_cast<unsigned>(requested);
  // Negation-style guards (!(x >= 0)) also catch NaN, which would sail
  // through `x < 0` and only explode later inside the runner.
  const double warmup = flags.get("warmup", warmup_hours);
  if (!(warmup >= 0.0) || !std::isfinite(warmup)) {
    throw util::PreconditionError(
        "--warmup must be a finite number of hours >= 0");
  }
  warmup_hours = warmup;
  const double hours = flags.get("hours", measure_hours);
  if (!(hours > 0.0) || !std::isfinite(hours)) {
    throw util::PreconditionError(
        "--hours must be a finite number of hours > 0");
  }
  measure_hours = hours;
  if (flags.has("shard")) {
    shard = ShardSpec::parse(flags.get("shard", std::string()));
  }
}

std::string SweepSpec::spec_hash() const {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis
  const auto mix = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    // Field separator outside the byte alphabet, so ("ab","c") and
    // ("a","bc") hash differently.
    h ^= 0x1ffu;
    h *= 1099511628211ull;
  };
  mix(scenario);
  mix(std::to_string(base_seed));
  mix(util::format_number(warmup_hours));
  mix(util::format_number(measure_hours));
  // Overrides change what every cell computes, so they belong in the hash;
  // mixing only when present keeps override-free hashes identical to
  // pre-override builds (shard headers from old runs still merge).
  for (const auto& [name, value] : overrides) {
    mix("override:" + name);
    mix(value);
  }
  for (const ParamAxis& axis : grid.axes()) {
    mix(axis.name);
    for (const std::string& value : axis.values) mix(value);
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

std::uint64_t SweepRunner::run_seed(std::uint64_t base_seed,
                                    const GridPoint& point) {
  return util::mix64(util::mix64(base_seed) ^ ParamGrid::workload_hash(point));
}

expr::ExperimentConfig SweepRunner::cell_config(const SweepSpec& spec,
                                                const Scenario& scenario,
                                                const GridPoint& point) {
  expr::ExperimentConfig config =
      expr::ExperimentConfig::make_default(core::StreamingMode::kClientServer);
  scenario.apply(config);
  config.warmup_hours = spec.warmup_hours;
  config.measure_hours = spec.measure_hours;
  // Overrides are spec-wide constants, so like the scenario they stay out
  // of the per-run seed.
  for (const auto& [name, value] : spec.overrides) {
    apply_parameter(config, name, value);
  }
  if (spec.customize) spec.customize(config);
  for (const auto& [name, value] : point.coords) {
    apply_parameter(config, name, value);
  }
  // Seeded from the *global* cell's workload coordinates, so every shard
  // layout replays the byte-identical viewer populations.
  config.seed = run_seed(spec.base_seed, point);
  return config;
}

std::vector<std::size_t> SweepRunner::shard_cells(std::size_t total,
                                                  const ShardSpec& shard) {
  CM_EXPECTS(shard.count >= 1 && shard.index < shard.count);
  std::vector<std::size_t> cells;
  for (std::size_t i = shard.index; i < total; i += shard.count) {
    cells.push_back(i);
  }
  return cells;
}

SweepResult SweepRunner::run(const SweepSpec& spec,
                             const ScenarioCatalog& catalog) {
  CM_EXPECTS(spec.warmup_hours >= 0.0 && spec.measure_hours > 0.0);
  // Series cannot stream: a sink takes scalar rows only.
  CM_EXPECTS(!(spec.keep_results && spec.sink));
  const std::vector<std::size_t> cells =
      shard_cells(spec.grid.num_points(), spec.shard);
  const std::size_t n = cells.size();

  SweepResult result = SweepResult::from_spec(spec);
  if (!spec.sink) result.runs.resize(n);
  if (spec.keep_results) result.results.resize(n);

  // Resolve the scenario expression once, up front: an unknown or
  // malformed composite fails fast before spinning up workers, and every
  // run applies the same resolved op list.
  const Scenario scenario = catalog.resolve(spec.scenario);

  auto run_one = [&](std::size_t slot) {
    const std::size_t cell = cells[slot];
    const GridPoint point = spec.grid.point(cell);
    const expr::ExperimentConfig config = cell_config(spec, scenario, point);
    expr::ExperimentResult run_result = expr::ExperimentRunner::run(config);
    RunSummary summary = RunSummary::from_result(spec.scenario, point,
                                                 config.seed, run_result);
    if (spec.sink) {
      spec.sink(cell, std::move(summary));
      return;
    }
    result.runs[slot] = std::move(summary);
    if (spec.keep_results) result.results[slot] = std::move(run_result);
  };

  const unsigned threads =
      spec.threads == 0 ? default_threads() : spec.threads;
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_one(i);
    return result;
  }

  // One looping worker per thread, cells claimed off an atomic counter —
  // NOT one queued task per cell. A million-cell grid would otherwise hold
  // a million packaged tasks + futures resident before the first run
  // finishes; this keeps the runner's footprint O(threads), which is what
  // lets a streaming-sink sweep stay flat no matter the grid size.
  std::atomic<std::size_t> next_slot{0};
  std::mutex error_mutex;
  std::size_t first_error_slot = n;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (;;) {
      const std::size_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
      if (slot >= n) return;
      try {
        run_one(slot);
      } catch (...) {
        // Keep running the remaining cells (matching the old drain-every-
        // future behaviour) and report the failure that is first in grid
        // order, deterministically, regardless of completion order.
        std::lock_guard<std::mutex> lock(error_mutex);
        if (slot < first_error_slot) {
          first_error_slot = slot;
          first_error = std::current_exception();
        }
      }
    }
  };

  {
    std::vector<std::jthread> workers;  // joined at scope exit
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) workers.emplace_back(worker);
  }
  if (first_error) std::rethrow_exception(first_error);
  return result;
}

}  // namespace cloudmedia::sweep
