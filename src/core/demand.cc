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
    const ChannelObservation& observation, double arrival_rate) const {
  std::uint64_t passes = 0;
  return std::move(estimate_run(std::span(&observation, 1),
                                std::span(&arrival_rate, 1),
                                factor(observation), passes)
                       .front());
}

std::vector<ChannelDemandEstimate> DemandEstimator::estimate_run(
    std::span<const ChannelObservation> run, std::span<const double> rates,
    const ChannelFactors& factors, std::uint64_t& passes) const {
  const auto j = static_cast<std::size_t>(params_.chunks_per_video);
  const std::size_t k = run.size();
  CM_EXPECTS(factors.transfer.rows() == j);
  CM_EXPECTS(rates.size() == k);

  std::vector<ExternalArrivals> arrivals(k);
  for (std::size_t c = 0; c < k; ++c) {
    CM_EXPECTS(run[c].entry.size() == j);
    CM_EXPECTS(rates[c] >= 0.0);
    arrivals[c] = ExternalArrivals{run[c].entry, rates[c]};
  }
  std::vector<std::vector<double>> lambdas =
      solve_traffic_equations(factors.traffic, arrivals);
  ++passes;

  const bool p2p = config_.mode == StreamingMode::kP2p;
  std::vector<ChannelDemandEstimate> out(k);
  std::vector<std::vector<double>> populations;
  if (p2p) populations.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    const ChannelObservation& observation = run[c];
    ChannelDemandEstimate& est = out[c];
    est.arrival_rates = std::move(lambdas[c]);
    if (config_.occupancy_floor && !observation.occupancy.empty()) {
      CM_EXPECTS(observation.occupancy.size() == j);
      // Little's-law inverse: n_i users dwelling ~T0 in the queue imply a
      // sustained chunk-request rate of n_i / T0 even with no new arrivals.
      for (std::size_t i = 0; i < j; ++i) {
        est.arrival_rates[i] =
            std::max(est.arrival_rates[i],
                     observation.occupancy[i] / params_.chunk_duration);
      }
    }
    est.capacity = planner_.plan(est.arrival_rates);

    if (p2p) {
      // Queue populations for the availability analysis: at the paper's
      // equilibrium the sojourn of queue i is the playback time T0, so
      // E[n_i] = λ_i · T0 (Little). The occupancy floor above already folds
      // in the measured position counts.
      std::vector<double>& population = populations.emplace_back(j);
      for (std::size_t i = 0; i < j; ++i) {
        population[i] = est.arrival_rates[i] * params_.chunk_duration;
      }
    } else {
      est.peer_supply.assign(j, 0.0);
      est.cloud_demand.resize(j);
      for (std::size_t i = 0; i < j; ++i) {
        est.cloud_demand[i] = est.capacity.chunks[i].bandwidth;
      }
    }
  }

  if (p2p) {
    std::vector<ChunkAvailability> availability = solve_chunk_availability(
        factors.transfer, factors.availability, populations);
    passes += factors.availability.size();  // one per anchor chunk's system
    for (std::size_t c = 0; c < k; ++c) {
      ChannelDemandEstimate& est = out[c];
      P2pSupply supply = solve_p2p_supply(
          std::move(availability[c]), est.capacity, populations[c],
          uniform_peers(run[c].mean_peer_uplink), params_.streaming_rate,
          config_.p2p);
      est.peer_supply = std::move(supply.peer_supply);
      est.cloud_demand = std::move(supply.cloud_residual);
    }
  }

  for (ChannelDemandEstimate& est : out) {
    est.total_cloud_demand = 0.0;
    for (double d : est.cloud_demand) est.total_cloud_demand += d;
  }
  return out;
}

}  // namespace cloudmedia::core
