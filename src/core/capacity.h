#pragma once

#include <vector>

#include "core/erlang.h"
#include "core/params.h"

namespace cloudmedia::core {

/// How chunk queues are mapped to server capacity.
enum class CapacityModel {
  /// The paper's Sec. IV-B verbatim: every chunk queue i gets its own
  /// integer m_i = min { m : E[n] <= λ_i T0 }. Faithful to the analysis,
  /// but reserves at least one whole VM-bandwidth R per active chunk.
  kPerChunkLiteral,
  /// Channel-pooled refinement (README "Modelling choices"): one VM may
  /// serve several consecutive chunks of a channel (Sec. V-A2), i.e. a
  /// channel's VMs form one pool. We size one M/M/M queue on the channel's
  /// aggregate load (same Erlang machinery, same sojourn target T0) and
  /// split the resulting bandwidth across chunks in proportion to λ_i.
  /// This reproduces the paper's own reserved-bandwidth scale (Fig. 4).
  kChannelPooled,
};

/// Equilibrium capacity requirement for one chunk queue.
struct ChunkCapacity {
  double arrival_rate = 0.0;       ///< λ_i (jobs/s)
  double servers = 0.0;            ///< m_i; integer under kPerChunkLiteral
  double bandwidth = 0.0;          ///< s_i = R · m_i (bytes/s)
  double expected_in_queue = 0.0;  ///< E[n_i], the paper's Eqn. (3)
};

/// Capacity requirement for a whole channel.
struct ChannelCapacityPlan {
  CapacityModel model = CapacityModel::kChannelPooled;
  std::vector<ChunkCapacity> chunks;
  int total_servers = 0;          ///< Σ m_i (literal) or pooled M (pooled)
  double total_bandwidth = 0.0;   ///< Σ s_i = R · total_servers
  double total_arrival_rate = 0.0;
};

/// Sec. IV-B: server capacity needed for smooth playback in one channel,
/// given the per-chunk arrival rates from the traffic equations. In the
/// client–server mode the cloud must supply all of it (Δ_i = s_i); in the
/// P2P mode the peer supply of Sec. IV-C is subtracted first.
class CapacityPlanner {
 public:
  CapacityPlanner(VodParameters params, CapacityModel model);

  [[nodiscard]] ChannelCapacityPlan plan(
      const std::vector<double>& arrival_rates) const;

  [[nodiscard]] const VodParameters& params() const noexcept { return params_; }
  [[nodiscard]] CapacityModel model() const noexcept { return model_; }

 private:
  [[nodiscard]] ChannelCapacityPlan plan_literal(
      const std::vector<double>& arrival_rates) const;
  [[nodiscard]] ChannelCapacityPlan plan_pooled(
      const std::vector<double>& arrival_rates) const;

  VodParameters params_;
  CapacityModel model_;
};

}  // namespace cloudmedia::core
