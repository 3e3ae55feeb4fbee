#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/capacity.h"
#include "core/p2p.h"
#include "core/params.h"
#include "util/matrix.h"

namespace cloudmedia::core {

/// Deployment mode of the VoD application (Sec. III-B).
enum class StreamingMode { kClientServer, kP2p };

/// What the tracking server measured for one channel during the last
/// provisioning interval (Sec. V-B: "the tracking server summarizes the
/// average user arrival rate Λ(c) ... as well as the viewing patterns
/// P(c)ij ... and sends these statistics to the controller").
struct ChannelObservation {
  double arrival_rate = 0.0;            ///< Λ̂, users/s
  util::Matrix transfer;                ///< P̂, J×J empirical transfer matrix
  std::vector<double> entry;            ///< empirical entry distribution
  std::vector<double> occupancy;        ///< current users per chunk queue
  std::vector<double> served_cloud_bandwidth;  ///< bytes/s, mean over interval
  double mean_peer_uplink = 0.0;        ///< û, bytes/s
};

/// The controller's per-channel output: the Sec.-IV pipeline end to end.
struct ChannelDemandEstimate {
  std::vector<double> arrival_rates;  ///< λ_i from the traffic equations
  ChannelCapacityPlan capacity;       ///< m_i, s_i = R·m_i
  std::vector<double> peer_supply;    ///< Γ_i (all zero in client–server)
  std::vector<double> cloud_demand;   ///< Δ_i = s_i − Γ_i (clamped at 0)
  double total_cloud_demand = 0.0;    ///< Σ Δ_i, bytes/s
};

struct DemandEstimatorConfig {
  StreamingMode mode = StreamingMode::kClientServer;
  CapacityModel capacity_model = CapacityModel::kChannelPooled;
  /// Also size demand on current queue occupancy (λ_i >= n_i / T0): keeps
  /// channels with lingering viewers but no fresh arrivals provisioned.
  /// See README "Modelling choices"; ablated by the ablation_strategies
  /// entry of `bench_paper_figures`.
  bool occupancy_floor = true;
  /// How Eqn. (5) caps peer supply per chunk (see core/p2p.h).
  P2pOptions p2p;
};

/// What the Sec.-IV pipeline derives from a channel's P̂ alone, whatever
/// the arrival rate and queue populations: channels that report the same
/// P̂ can share one.
struct ChannelFactors {
  util::Matrix transfer;        ///< P̂ with the minimum exit leak enforced
  util::LuFactors traffic;      ///< I − Pᵀ of the traffic equations
  /// Proposition 1's reduced systems in P2P mode; empty otherwise.
  std::vector<util::LuFactors> availability;
};

struct DemandSet;
struct TrackerReport;

/// Sec. IV end-to-end for one channel: traffic equations → Erlang sizing →
/// (P2P only) peer-supply subtraction.
class DemandEstimator {
 public:
  DemandEstimator(VodParameters params, DemandEstimatorConfig config);

  [[nodiscard]] ChannelDemandEstimate estimate(
      const ChannelObservation& observation) const {
    return estimate(observation, observation.arrival_rate);
  }
  /// The same pipeline at `arrival_rate` in place of the measured Λ̂ (a
  /// policy's prediction for the next interval), with the measured P̂.
  [[nodiscard]] ChannelDemandEstimate estimate(
      const ChannelObservation& observation, double arrival_rate) const;

  [[nodiscard]] const VodParameters& params() const noexcept { return params_; }
  [[nodiscard]] const DemandEstimatorConfig& config() const noexcept {
    return config_;
  }

 private:
  // Solves each run of channels whose P̂ is bitwise the same as one batch.
  friend DemandSet estimate_channels(
      const DemandEstimator& estimator, const TrackerReport& report,
      const std::function<double(std::size_t, double)>& rate);

  /// Damp observation.transfer and factor the traffic equations, and in
  /// P2P mode Proposition 1's systems.
  [[nodiscard]] ChannelFactors factor(
      const ChannelObservation& observation) const;
  /// The pipeline for a run of channels whose P̂ are all bitwise equal to
  /// the one `factors` came from (factor()), channel c at rates[c]: one
  /// multi-column traffic solve for the run, the occupancy floor and
  /// Erlang sizing per channel, one multi-column Proposition 1 solve per
  /// anchor chunk, and the Eqn. (5) waterfall per channel. Element c is
  /// bitwise the two-argument estimate of run[c] at rates[c]. Adds the
  /// multi-column solves it makes to `passes`.
  [[nodiscard]] std::vector<ChannelDemandEstimate> estimate_run(
      std::span<const ChannelObservation> run, std::span<const double> rates,
      const ChannelFactors& factors, std::uint64_t& passes) const;

  VodParameters params_;
  DemandEstimatorConfig config_;
  CapacityPlanner planner_;
};

}  // namespace cloudmedia::core
