#pragma once

#include <cstddef>
#include <functional>

#include "profile/profile.h"
#include "util/rng.h"

namespace cloudmedia::profile {

/// Bounds on what random_profile composes. The defaults keep each fuzz
/// profile cheap enough that `tool_fuzz --runs=25` (two sweep executions
/// per profile — see check_profile_invariants) fits in a CI smoke job.
struct FuzzOptions {
  std::size_t max_scenario_parts = 2;  ///< catalog names composed with '+'
  std::size_t max_timed_parts = 1;     ///< parts that get an @fire-time
  std::size_t max_axes = 2;            ///< grid axes
  std::size_t max_values_per_axis = 2;
  std::size_t max_overrides = 2;       ///< pinned registry parameters
};

/// Compose a random — but always *valid* — profile: scenario parts drawn
/// from the live catalog (some with random `@<minutes>m` fire times), grid
/// axes and overrides drawn from the parameter registry with values from
/// sweep::parameter_values (every spelling of a choice parameter, the
/// registry's sample values of a numeric one), short horizons, and a
/// random 64-bit seed. The point is to exercise combinations no committed
/// preset covers; check_profile_invariants then decides whether the
/// simulator honored its contracts on them. Deterministic in the rng state: tool_fuzz --seed=S
/// replays the identical profile sequence.
[[nodiscard]] Profile random_profile(util::Rng& rng,
                                     const FuzzOptions& options = {});

/// Shrink a failing profile by greedy deletion: repeatedly try dropping a
/// scenario part (or the whole expression back to baseline_diurnal), a
/// grid axis, an axis value, or an override, keeping each deletion only
/// when `still_fails` says the smaller profile still reproduces the
/// failure. Horizons and seed are never touched — they are what the repro
/// must replay. Returns the smallest failing profile found.
[[nodiscard]] Profile minimize_failing_profile(
    const Profile& failing,
    const std::function<bool(const Profile&)>& still_fails);

}  // namespace cloudmedia::profile
