#pragma once

#include <cstdint>
#include <vector>

#include "workload/cohort.h"
#include "workload/distributions.h"
#include "workload/viewing.h"

namespace cloudmedia::workload {

/// Everything that defines the user-side workload of a multi-channel VoD
/// deployment, with defaults from the paper's experimental settings
/// (Sec. VI-A): 20 Zipf-popular channels, ~2500 average concurrent users,
/// diurnal arrivals with two flash crowds, 15-minute mean seek interval,
/// bounded-Pareto peer uplinks.
struct WorkloadConfig {
  int num_channels = 20;
  int chunks_per_video = 20;
  double zipf_exponent = 1.0;
  /// Aggregate external arrival rate (users/s) when the diurnal multiplier
  /// is 1. With the default behaviour (mean session ≈ 8 chunks ≈ 40 min)
  /// 1.0 user/s sustains ≈ 2400 concurrent users, the paper's scale.
  double total_arrival_rate = 1.0;
  DiurnalPattern diurnal = DiurnalPattern::paper_default();
  ViewingBehavior behavior;
  /// Peer uplink distribution (bytes/s). Paper: Pareto on [180 kbps,
  /// 10 Mbps], shape 3.
  double uplink_lower = 22'500.0;    // 180 kbps
  double uplink_upper = 1'250'000.0; // 10 Mbps
  double uplink_shape = 3.0;
  /// If > 0, rescale the uplink distribution so its mean equals
  /// `uplink_mean_ratio * streaming_rate`. This is the Fig.-11 knob; see
  /// README "Modelling choices" for why the paper's literal Pareto
  /// parameters are rescaled.
  double uplink_mean_ratio = 1.0;
  double streaming_rate = 50'000.0;  // bytes/s; r = 400 kbps
  /// Catalog-refresh reshuffle (the catalog_refresh scenario): every
  /// `refresh_period_hours` of simulated time the channel-to-popularity-
  /// rank mapping rotates by `refresh_shift` ranks, so a channel's arrival
  /// rate jumps to another rank's Zipf weight and demand history predicts
  /// the wrong channels. 0 (the default) disables the reshuffle and keeps
  /// the static mapping — and the exact RNG stream — of the paper setup.
  double refresh_period_hours = 0.0;
  int refresh_shift = 0;

  void validate() const;
};

/// Deterministic workload: per-channel arrival streams and per-user session
/// scripts, all derived from (seed, purpose, entity id) RNG streams so two
/// systems consuming the same Workload observe identical users.
class Workload {
 public:
  /// `envelope_headroom` (>= 1) multiplies the thinning envelope handed to
  /// make_arrivals(). The default 1.0 is bit-neutral (x * 1.0 == x). Pass
  /// more when set_config() will raise arrival rates mid-run: the headroom
  /// must cover the highest channel_max_rate any future config reaches,
  /// relative to this construction-time config (the experiment runner
  /// computes it by dry-running the timeline).
  explicit Workload(WorkloadConfig config, std::uint64_t seed,
                    double envelope_headroom = 1.0);

  /// Replace the workload shape mid-run: arrival pattern, viewing
  /// behaviour, catalog popularity knobs, peer uplinks. Streams derived so
  /// far are untouched (the root RNG never changes); rate lambdas handed
  /// out by make_arrivals() read the new config live. Structural fields
  /// (num_channels, chunks_per_video, streaming_rate) are frozen — the
  /// running system sized its pools and VM menus from them at t=0.
  void set_config(const WorkloadConfig& config);

  [[nodiscard]] const WorkloadConfig& config() const noexcept { return config_; }
  [[nodiscard]] int num_channels() const noexcept { return config_.num_channels; }
  [[nodiscard]] const std::vector<double>& channel_weights() const noexcept {
    return weights_;
  }

  /// Popularity weight of channel c at time t: the static Zipf weight, or
  /// — under a catalog refresh — the weight of the rank the channel
  /// currently occupies in the rotating mapping.
  [[nodiscard]] double channel_weight_at(int channel, double t) const;
  /// Instantaneous external arrival rate of channel c at time t.
  [[nodiscard]] double channel_rate(int channel, double t) const;
  /// True mean arrival rate of channel c over [t0, t1), sampled at
  /// 1-minute resolution.
  [[nodiscard]] double mean_rate(int channel, double t0, double t1) const;
  /// Envelope for thinning (an upper bound on channel_rate over all t; the
  /// top Zipf weight when a catalog refresh can rotate the channel there).
  [[nodiscard]] double channel_max_rate(int channel) const;

  /// Arrival stream for a channel (independent derived RNG).
  [[nodiscard]] PoissonArrivals make_arrivals(int channel) const;

  /// Windowed arrival-count stream for the cohort engine (independent
  /// derived RNG — a different purpose than make_arrivals, so the two
  /// engines never share draws).
  [[nodiscard]] CohortArrivals make_cohort_arrivals(int channel,
                                                    double window) const;

  /// Deterministic session for the `user_index`-th arrival of `channel`.
  [[nodiscard]] SessionScript make_session(int channel,
                                           std::uint64_t user_index) const;

  [[nodiscard]] const BoundedPareto& uplink_distribution() const noexcept {
    return uplink_;
  }

  /// Expected chunks watched per session, from the absorbing chain
  /// E[visits] = entryᵀ (I − P)^{-1} 1. Used for calibration and tests.
  [[nodiscard]] double expected_session_chunks() const;

 private:
  WorkloadConfig config_;
  util::Rng root_;
  double envelope_headroom_;
  std::vector<double> weights_;
  BoundedPareto uplink_;
  SessionGenerator session_gen_;
};

}  // namespace cloudmedia::workload
