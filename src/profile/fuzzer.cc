#include "profile/fuzzer.h"

#include <algorithm>
#include <string>
#include <vector>

#include "sweep/param_grid.h"
#include "sweep/scenario_catalog.h"
#include "util/check.h"

namespace cloudmedia::profile {

namespace {

/// k distinct indices out of [0, n), in random order.
std::vector<std::size_t> sample_distinct(util::Rng& rng, std::size_t n,
                                         std::size_t k) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: only the first k slots matter.
  for (std::size_t i = 0; i < k && i + 1 < n; ++i) {
    const std::size_t j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(i), static_cast<int>(n - 1)));
    std::swap(all[i], all[j]);
  }
  all.resize(std::min(k, n));
  return all;
}

std::vector<std::string> split_parts(const std::string& expression) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= expression.size()) {
    const std::size_t plus = expression.find('+', start);
    const std::size_t end = plus == std::string::npos ? expression.size() : plus;
    parts.push_back(expression.substr(start, end - start));
    if (plus == std::string::npos) break;
    start = plus + 1;
  }
  return parts;
}

std::string join_parts(const std::vector<std::string>& parts) {
  std::string expression;
  for (const std::string& part : parts) {
    if (!expression.empty()) expression += '+';
    expression += part;
  }
  return expression;
}

}  // namespace

namespace {

Profile compose_profile(util::Rng& rng, const FuzzOptions& options) {
  Profile p;

  // Scenario: 1..max distinct catalog parts, composed left to right; up to
  // max_timed_parts of them get a random mid-run fire time in whole
  // minutes (a time past the horizon is valid — the op just never fires).
  const std::vector<std::string> names =
      sweep::ScenarioCatalog::global().names();
  const std::size_t num_parts = static_cast<std::size_t>(rng.uniform_int(
      1, static_cast<int>(std::max<std::size_t>(1, options.max_scenario_parts))));
  std::vector<std::string> parts;
  std::size_t timed = 0;
  for (const std::size_t index :
       sample_distinct(rng, names.size(), num_parts)) {
    std::string part = names[index];
    if (timed < options.max_timed_parts && rng.bernoulli(0.4)) {
      // Appended piecewise: GCC 12 at -O3 warns -Wrestrict on
      // `"@" + std::to_string(...)`.
      part += '@';
      part += std::to_string(rng.uniform_int(10, 120));
      part += 'm';
      ++timed;
    }
    parts.push_back(std::move(part));
  }
  p.scenario = join_parts(parts);

  // Short horizons: the checker runs every profile twice.
  const double warmups[] = {0.0, 0.1, 0.25};
  const double measures[] = {0.5, 0.75, 1.0};
  p.warmup_hours = warmups[rng.uniform_int(0, 2)];
  p.measure_hours = measures[rng.uniform_int(0, 2)];

  p.seed = rng.next_u64();

  // Grid axes and overrides draw DISTINCT parameters from one shuffle, so
  // an override never silently loses to an axis of the same name. Values
  // come from the registry: every spelling of a choice parameter, the
  // sample values of a numeric one.
  const std::vector<std::string> parameters = sweep::known_parameters();
  const std::size_t num_axes =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(options.max_axes)));
  const std::size_t num_overrides = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(options.max_overrides)));
  const std::vector<std::size_t> picked =
      sample_distinct(rng, parameters.size(), num_axes + num_overrides);
  for (std::size_t i = 0; i < picked.size(); ++i) {
    const std::string& parameter = parameters[picked[i]];
    const std::vector<std::string>& pool = sweep::parameter_values(parameter);
    if (i < num_axes) {
      const std::size_t want = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<int>(std::min(options.max_values_per_axis,
                                       pool.size()))));
      std::vector<std::string> values;
      for (const std::size_t v : sample_distinct(rng, pool.size(), want)) {
        values.push_back(pool[v]);
      }
      p.grid.add_axis(parameter, std::move(values));
    } else {
      p.overrides.emplace_back(
          parameter, pool[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<int>(pool.size()) - 1))]);
    }
  }

  p.validate();
  return p;
}

}  // namespace

Profile random_profile(util::Rng& rng, const FuzzOptions& options) {
  // Not every random composition is valid: giving a part like
  // long_tail_catalog an `@` fire time schedules a timed op that mutates
  // a frozen field, which compose_profile's validate() rejects. Redraw
  // until a composition passes — the retry sequence consumes the rng
  // deterministically, so --seed still replays the identical profiles.
  for (int attempt = 0; attempt < 64; ++attempt) {
    try {
      return compose_profile(rng, options);
    } catch (const util::PreconditionError&) {
      continue;
    }
  }
  throw util::PreconditionError(
      "random_profile could not compose a valid profile in 64 attempts — "
      "the generator's vocabulary disagrees with the validators");
}

Profile minimize_failing_profile(
    const Profile& failing,
    const std::function<bool(const Profile&)>& still_fails) {
  Profile best = failing;
  // Greedy deletion to a fixed point; every accepted step strictly shrinks
  // the profile, so the bound is generous.
  for (int round = 0; round < 100; ++round) {
    bool shrunk = false;

    // Scenario: drop one part, or collapse a single non-default part to
    // the identity-ish baseline.
    const std::vector<std::string> parts = split_parts(best.scenario);
    if (parts.size() > 1) {
      for (std::size_t skip = 0; skip < parts.size() && !shrunk; ++skip) {
        std::vector<std::string> fewer;
        for (std::size_t i = 0; i < parts.size(); ++i) {
          if (i != skip) fewer.push_back(parts[i]);
        }
        Profile candidate = best;
        candidate.scenario = join_parts(fewer);
        if (still_fails(candidate)) {
          best = std::move(candidate);
          shrunk = true;
        }
      }
    } else if (best.scenario != "baseline_diurnal") {
      Profile candidate = best;
      candidate.scenario = "baseline_diurnal";
      if (still_fails(candidate)) {
        best = std::move(candidate);
        shrunk = true;
      }
    }

    // Overrides: drop one.
    for (std::size_t skip = 0; skip < best.overrides.size() && !shrunk;
         ++skip) {
      Profile candidate = best;
      candidate.overrides.erase(candidate.overrides.begin() +
                                static_cast<std::ptrdiff_t>(skip));
      if (still_fails(candidate)) {
        best = std::move(candidate);
        shrunk = true;
      }
    }

    // Grid: drop a whole axis, or one value of a multi-value axis.
    const std::vector<sweep::ParamAxis>& axes = best.grid.axes();
    for (std::size_t a = 0; a < axes.size() && !shrunk; ++a) {
      {
        Profile candidate = best;
        candidate.grid = sweep::ParamGrid();
        for (std::size_t i = 0; i < axes.size(); ++i) {
          if (i != a) candidate.grid.add_axis(axes[i].name, axes[i].values);
        }
        if (still_fails(candidate)) {
          best = std::move(candidate);
          shrunk = true;
          break;
        }
      }
      for (std::size_t v = 0; v < axes[a].values.size() && !shrunk &&
                              axes[a].values.size() > 1;
           ++v) {
        Profile candidate = best;
        candidate.grid = sweep::ParamGrid();
        for (std::size_t i = 0; i < axes.size(); ++i) {
          std::vector<std::string> values = axes[i].values;
          if (i == a) {
            values.erase(values.begin() + static_cast<std::ptrdiff_t>(v));
          }
          candidate.grid.add_axis(axes[i].name, std::move(values));
        }
        if (still_fails(candidate)) {
          best = std::move(candidate);
          shrunk = true;
        }
      }
    }

    if (!shrunk) break;
  }
  return best;
}

}  // namespace cloudmedia::profile
