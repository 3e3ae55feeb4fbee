#include "core/demand.h"

#include <algorithm>
#include <utility>

#include "core/jackson.h"
#include "util/check.h"

namespace cloudmedia::core {

DemandEstimator::DemandEstimator(VodParameters params,
                                 DemandEstimatorConfig config)
    : params_(params), config_(config), planner_(params, config.capacity_model) {
  params_.validate();
}

ChannelFactors DemandEstimator::factor(
    const ChannelObservation& observation) const {
  const auto j = static_cast<std::size_t>(params_.chunks_per_video);
  CM_EXPECTS(observation.transfer.rows() == j);

  // Measured P̂ can be degenerate: in a quiet hour every observed departure
  // from some chunk may lead to another chunk, so rows sum to 1 and the
  // traffic equations become singular (the model's equilibrium is genuinely
  // unbounded — users that "never leave"). Enforce a minimum leak: scale
  // the matrix so the largest row keeps at least kMinLeak exit probability,
  // which bounds expected visits per entry at 1/kMinLeak. Well-measured
  // matrices (the paper's leave probability is ~0.12) are untouched.
  constexpr double kMinLeak = 1e-3;
  double max_row = 0.0;
  for (std::size_t i = 0; i < j; ++i) {
    double row = 0.0;
    for (std::size_t q = 0; q < j; ++q) row += observation.transfer(i, q);
    max_row = std::max(max_row, row);
  }
  util::Matrix damped = observation.transfer;
  if (max_row > 1.0 - kMinLeak) {
    const double scale = (1.0 - kMinLeak) / max_row;
    for (std::size_t i = 0; i < j; ++i) {
      for (std::size_t q = 0; q < j; ++q) damped(i, q) *= scale;
    }
  }

  util::LuFactors traffic = factor_traffic_equations(damped);
  std::vector<util::LuFactors> systems;
  if (config_.mode == StreamingMode::kP2p) {
    systems = factor_chunk_availability(damped);
  }
  return ChannelFactors{std::move(damped), std::move(traffic),
                        std::move(systems)};
}

ChannelDemandEstimate DemandEstimator::estimate(
    const ChannelObservation& observation, double arrival_rate,
    const ChannelFactors& factors) const {
  const auto j = static_cast<std::size_t>(params_.chunks_per_video);
  CM_EXPECTS(factors.transfer.rows() == j);
  CM_EXPECTS(observation.entry.size() == j);
  CM_EXPECTS(arrival_rate >= 0.0);

  ChannelDemandEstimate out;
  out.arrival_rates = solve_traffic_equations(
      factors.traffic, observation.entry, arrival_rate);

  if (config_.occupancy_floor && !observation.occupancy.empty()) {
    CM_EXPECTS(observation.occupancy.size() == j);
    // Little's-law inverse: n_i users dwelling ~T0 in the queue imply a
    // sustained chunk-request rate of n_i / T0 even with no new arrivals.
    for (std::size_t i = 0; i < j; ++i) {
      out.arrival_rates[i] =
          std::max(out.arrival_rates[i],
                   observation.occupancy[i] / params_.chunk_duration);
    }
  }

  out.capacity = planner_.plan(out.arrival_rates);
  out.peer_supply.assign(j, 0.0);
  out.cloud_demand.resize(j);

  if (config_.mode == StreamingMode::kP2p) {
    // Queue populations for the availability analysis: at the paper's
    // equilibrium the sojourn of queue i is the playback time T0, so
    // E[n_i] = λ_i · T0 (Little). The occupancy floor above already folds
    // in the measured position counts.
    std::vector<double> population(j);
    for (std::size_t i = 0; i < j; ++i) {
      population[i] = out.arrival_rates[i] * params_.chunk_duration;
    }
    P2pSupply supply = solve_p2p_supply(
        solve_chunk_availability(factors.transfer, factors.availability,
                                 population),
        out.capacity, population, uniform_peers(observation.mean_peer_uplink),
        params_.streaming_rate, config_.p2p);
    out.peer_supply = std::move(supply.peer_supply);
    out.cloud_demand = std::move(supply.cloud_residual);
  } else {
    for (std::size_t i = 0; i < j; ++i) {
      out.cloud_demand[i] = out.capacity.chunks[i].bandwidth;
    }
  }

  out.total_cloud_demand = 0.0;
  for (double d : out.cloud_demand) out.total_cloud_demand += d;
  return out;
}

}  // namespace cloudmedia::core
