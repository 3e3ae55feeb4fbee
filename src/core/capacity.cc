#include "core/capacity.h"

#include "util/check.h"

namespace cloudmedia::core {

CapacityPlanner::CapacityPlanner(VodParameters params, CapacityModel model)
    : params_(params), model_(model) {
  params_.validate();
}

ChannelCapacityPlan CapacityPlanner::plan(
    const std::vector<double>& arrival_rates) const {
  CM_EXPECTS(!arrival_rates.empty());
  for (double l : arrival_rates) CM_EXPECTS(l >= 0.0);
  return model_ == CapacityModel::kPerChunkLiteral ? plan_literal(arrival_rates)
                                                   : plan_pooled(arrival_rates);
}

ChannelCapacityPlan CapacityPlanner::plan_literal(
    const std::vector<double>& arrival_rates) const {
  const double mu = params_.service_rate();
  const double t0 = params_.chunk_duration;

  ChannelCapacityPlan out;
  out.model = CapacityModel::kPerChunkLiteral;
  out.chunks.reserve(arrival_rates.size());
  for (double lambda : arrival_rates) {
    ChunkCapacity c;
    c.arrival_rate = lambda;
    MmmMetrics at_m;  // all zero when λ == 0 (m = 0)
    const int m = min_servers(lambda, mu, lambda * t0, &at_m);
    c.servers = static_cast<double>(m);
    c.bandwidth = params_.vm_bandwidth * c.servers;
    c.expected_in_queue = at_m.expected_system;
    out.total_servers += m;
    out.total_bandwidth += c.bandwidth;
    out.total_arrival_rate += lambda;
    out.chunks.push_back(c);
  }
  return out;
}

ChannelCapacityPlan CapacityPlanner::plan_pooled(
    const std::vector<double>& arrival_rates) const {
  const double mu = params_.service_rate();
  const double t0 = params_.chunk_duration;

  ChannelCapacityPlan out;
  out.model = CapacityModel::kChannelPooled;
  out.chunks.resize(arrival_rates.size());
  double total = 0.0;
  for (double l : arrival_rates) total += l;
  out.total_arrival_rate = total;

  for (std::size_t i = 0; i < arrival_rates.size(); ++i) {
    out.chunks[i].arrival_rate = arrival_rates[i];
  }
  if (total <= 0.0) return out;

  MmmMetrics at_pooled;
  const int pooled = min_servers(total, mu, total * t0, &at_pooled);
  out.total_servers = pooled;
  out.total_bandwidth = params_.vm_bandwidth * static_cast<double>(pooled);
  const double sojourn = at_pooled.expected_sojourn;

  for (std::size_t i = 0; i < arrival_rates.size(); ++i) {
    ChunkCapacity& c = out.chunks[i];
    const double share = arrival_rates[i] / total;
    c.servers = static_cast<double>(pooled) * share;
    c.bandwidth = out.total_bandwidth * share;
    // Little's law on the chunk's share of the pooled queue.
    c.expected_in_queue = arrival_rates[i] * sojourn;
  }
  return out;
}

}  // namespace cloudmedia::core
