#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/capacity.h"
#include "util/matrix.h"

namespace cloudmedia::core {

/// Expected chunk availability in the P2P overlay (Sec. IV-C).
///
/// ν_ij = expected number of peers currently in chunk queue j that have
/// chunk i buffered. Proposition 1 states the equilibrium fixed point
///   E[ν_ij] = Σ_l E[ν_il] · P_lj   (for j != i),
/// anchored by E[ν_ii] = E[n_i] (peers still retrieving chunk i are not
/// suppliers). ν_i = Σ_{j != i} ν_ij is the expected number of *suppliers*
/// of chunk i (the paper's Eqn. (4)).
struct ChunkAvailability {
  util::Matrix nu;              ///< J×J matrix, nu(i, j) = E[ν_ij]
  std::vector<double> owners;   ///< ν_i per chunk (Eqn. (4))
};

/// Proposition 1's J reduced systems (I − P̃ᵀ) for a validated `transfer`,
/// one per chunk, factored once: they depend on P alone, not on the
/// populations, so channels that share a P share them. Empty for a
/// one-chunk channel, which has no system.
[[nodiscard]] std::vector<util::LuFactors> factor_chunk_availability(
    const util::Matrix& transfer);

/// Solve Proposition 1 for every chunk: one (J-1)-dimensional linear system
/// per chunk i, unknowns {ν_ij}_{j != i}, on the factors of the same
/// `transfer` (factor_chunk_availability). A population is the paper's
/// E[n_i] — the expected users occupying chunk queue i. At the paper's
/// equilibrium the sojourn in queue i is the playback time T0, so
/// E[n_i] = λ_i · T0 by Little's law; pass that (or a measured occupancy).
///
/// The k `populations` share the systems, so each anchor chunk's system is
/// solved for all of them in one multi-column pass; element c of the result
/// is bitwise what populations[c] alone gives.
[[nodiscard]] std::vector<ChunkAvailability> solve_chunk_availability(
    const util::Matrix& transfer, const std::vector<util::LuFactors>& systems,
    std::span<const std::vector<double>> populations);

/// The same for one population, factoring `transfer` first.
[[nodiscard]] inline ChunkAvailability solve_chunk_availability(
    const util::Matrix& transfer, const std::vector<double>& population) {
  return std::move(solve_chunk_availability(transfer,
                                            factor_chunk_availability(transfer),
                                            std::span(&population, 1))
                       .front());
}

/// How the per-chunk peer supply is capped in Eqn. (5).
enum class P2pDemandCap {
  /// Verbatim Eqn. (5): Γ_i <= m_i · r. Note r is the *streaming* rate
  /// while the provisioned requirement is m_i · R with R = 25 r in the
  /// paper's testbed, so this cap limits peer offload to r/R = 4 % of
  /// provisioned bandwidth — inconsistent with the paper's own Fig. 4/10
  /// (P2P uses ~10× less cloud than client–server). Kept for the ablation
  /// bench.
  kStreamingRateLiteral,
  /// Bandwidth-consistent cap: Γ_i <= s_i = m_i · R, i.e. peers may cover
  /// up to the chunk's full provisioned requirement. Default; reproduces
  /// the paper's reported P2P savings. See README "Modelling choices".
  kProvisionedBandwidth,
};

struct P2pOptions {
  P2pDemandCap demand_cap = P2pDemandCap::kProvisionedBandwidth;
};

/// One class of peers sharing an upload capacity (DSL / cable / fiber…).
/// The paper's Sec. IV-C analysis assumes one homogeneous upload u and
/// notes it "can be readily extended to cases with heterogeneous
/// bandwidths"; a class mix is that extension.
struct PeerClass {
  std::string name;
  double upload = 0.0;    ///< u_g, bytes/s
  double fraction = 0.0;  ///< population share; fractions must sum to 1
};

/// Validate a class mix: every class named, with upload >= 0 and a
/// fraction in (0, 1]; fractions sum to 1.
void validate_peer_classes(const std::vector<PeerClass>& classes);

/// Population-weighted mean upload Σ_g f_g u_g — the homogeneous u that a
/// mean-field reduction of the mix would use.
[[nodiscard]] double mean_upload(const std::vector<PeerClass>& classes);

/// Build `num_classes` equal-population classes from an upload-capacity
/// quantile function (inverse CDF on [0,1)). Class g's upload is the
/// conditional mean of the distribution over its quantile bin (numeric,
/// `resolution` samples per bin), so the class mix preserves the
/// distribution's overall mean. Use with BoundedPareto::quantile to
/// discretize the paper's Pareto uplinks.
[[nodiscard]] std::vector<PeerClass> classes_from_quantiles(
    const std::function<double(double)>& quantile, int num_classes,
    int resolution = 64);

/// Result of the rarest-first peer-upload waterfall (the paper's Eqn. (5)).
struct P2pSupply {
  ChunkAvailability availability;
  std::vector<std::size_t> rarest_order;  ///< chunk indices, rarest first
  std::vector<double> peer_supply;        ///< Γ_i, bytes/s
  util::Matrix class_supply;              ///< [class][chunk] share of Γ_i
  std::vector<double> cloud_residual;     ///< Δ_i = max(0, s_i − Γ_i), bytes/s
};

/// Compute Γ_i and the cloud residual Δ_i for one channel.
///
/// Eqn. (5): chunks are served rarest-first; the upload available to chunk
/// π_k is the owners' total capacity minus what those owners already
/// pledged to rarer chunks. The probability Ψ(π_j, π_k) that a peer owns
/// both chunks is approximated by ownership independence,
/// Ψ = (ν_j/N)(ν_k/N), under which the deduction collapses to each peer's
/// expected pledged upload Σ_{j<k} Γ_{π_j}/N.
///
/// Class membership is independent of a peer's position in the channel, so
/// chunk i has f_g · ν_i expected class-g owners, each with headroom u_g
/// minus its class's pledges per member. Within one chunk Γ is split across
/// classes in proportion to their headroom (every owner pledges the same
/// fraction of it), so a one-class mix is exactly the homogeneous Eqn. (5).
///
/// `availability` is Proposition 1 solved for `population`, the queue
/// occupancies (see solve_chunk_availability); `capacity` supplies m_i and
/// s_i = R·m_i.
[[nodiscard]] P2pSupply solve_p2p_supply(ChunkAvailability availability,
                                         const ChannelCapacityPlan& capacity,
                                         const std::vector<double>& population,
                                         const std::vector<PeerClass>& classes,
                                         double streaming_rate,
                                         const P2pOptions& options = {});

/// The same, solving Proposition 1 for `transfer` first.
[[nodiscard]] inline P2pSupply solve_p2p_supply(
    const util::Matrix& transfer, const ChannelCapacityPlan& capacity,
    const std::vector<double>& population,
    const std::vector<PeerClass>& classes, double streaming_rate,
    const P2pOptions& options = {}) {
  return solve_p2p_supply(solve_chunk_availability(transfer, population),
                          capacity, population, classes, streaming_rate,
                          options);
}

/// The paper's homogeneous mix: every peer uploads `upload`.
[[nodiscard]] inline std::vector<PeerClass> uniform_peers(double upload) {
  return {{"uniform", upload, 1.0}};
}

/// The paper's homogeneous Eqn. (5): every peer uploads `peer_upload_mean`.
[[nodiscard]] inline P2pSupply solve_p2p_supply(
    const util::Matrix& transfer, const ChannelCapacityPlan& capacity,
    const std::vector<double>& population, double peer_upload_mean,
    double streaming_rate, const P2pOptions& options = {}) {
  return solve_p2p_supply(transfer, capacity, population,
                          uniform_peers(peer_upload_mean), streaming_rate,
                          options);
}

}  // namespace cloudmedia::core
