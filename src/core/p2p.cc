#include "core/p2p.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/jackson.h"
#include "util/check.h"

namespace cloudmedia::core {

namespace {

/// The q-th of the J-1 chunk queues other than queue i.
std::size_t other_queue(std::size_t q, std::size_t i) { return q + (q >= i ? 1 : 0); }

/// Proposition 1's reduced system for chunk i. Unknowns x_q = ν_{i,q'} for
/// the J-1 queues q' = other_queue(q, i):
///   x_q = Σ_l ν_{i,l} P_{l,q'}
///       = ν_{i,i} P_{i,q'} + Σ_p x_p P_{p',q'}
/// i.e. (I − P̃ᵀ) x = E[n_i] · P_{i,·restricted}, with P̃ the transfer
/// matrix restricted to the non-i queues.
util::Matrix reduced_system(const util::Matrix& transfer, std::size_t i) {
  const std::size_t j = transfer.rows();
  util::Matrix a(j - 1, j - 1);
  for (std::size_t q = 0; q < j - 1; ++q) {
    for (std::size_t p = 0; p < j - 1; ++p) {
      a(q, p) = (p == q ? 1.0 : 0.0) -
                transfer(other_queue(p, i), other_queue(q, i));
    }
  }
  return a;
}

}  // namespace

std::vector<util::LuFactors> factor_chunk_availability(
    const util::Matrix& transfer) {
  validate_transfer_matrix(transfer);
  const std::size_t j = transfer.rows();
  std::vector<util::LuFactors> systems;
  if (j == 1) return systems;
  systems.reserve(j);
  for (std::size_t i = 0; i < j; ++i) {
    systems.emplace_back(reduced_system(transfer, i));
  }
  return systems;
}

ChunkAvailability solve_chunk_availability(
    const util::Matrix& transfer, const std::vector<util::LuFactors>& systems,
    const std::vector<double>& population) {
  const std::size_t j = transfer.rows();
  CM_EXPECTS(systems.size() == (j == 1 ? 0 : j));
  CM_EXPECTS(population.size() == j);
  for (double n : population) CM_EXPECTS(n >= 0.0);
  const std::vector<double>& expected_in_queue = population;

  ChunkAvailability out{util::Matrix(j, j), std::vector<double>(j, 0.0)};

  if (j == 1) {
    // A single chunk has no other queues to hold suppliers in.
    out.nu(0, 0) = expected_in_queue[0];
    return out;
  }

  std::vector<double> b(j - 1);
  for (std::size_t i = 0; i < j; ++i) {
    for (std::size_t q = 0; q < j - 1; ++q) {
      b[q] = expected_in_queue[i] * transfer(i, other_queue(q, i));
    }
    const std::vector<double> x = systems[i].solve(b);

    out.nu(i, i) = expected_in_queue[i];
    double total = 0.0;
    for (std::size_t q = 0; q < j - 1; ++q) {
      const double v = std::max(0.0, x[q]);  // clamp round-off
      out.nu(i, other_queue(q, i)) = v;
      total += v;
    }
    out.owners[i] = total;
  }
  return out;
}

void validate_peer_classes(const std::vector<PeerClass>& classes) {
  CM_EXPECTS(!classes.empty());
  double total = 0.0;
  for (const PeerClass& c : classes) {
    CM_EXPECTS(!c.name.empty());
    CM_EXPECTS(c.upload >= 0.0);
    CM_EXPECTS(c.fraction > 0.0 && c.fraction <= 1.0);
    total += c.fraction;
  }
  CM_EXPECTS(std::abs(total - 1.0) < 1e-9);
}

double mean_upload(const std::vector<PeerClass>& classes) {
  validate_peer_classes(classes);
  double mean = 0.0;
  for (const PeerClass& c : classes) mean += c.fraction * c.upload;
  return mean;
}

std::vector<PeerClass> classes_from_quantiles(
    const std::function<double(double)>& quantile, int num_classes,
    int resolution) {
  CM_EXPECTS(quantile != nullptr);
  CM_EXPECTS(num_classes >= 1);
  CM_EXPECTS(resolution >= 1);

  std::vector<PeerClass> classes;
  classes.reserve(static_cast<std::size_t>(num_classes));
  const double bin = 1.0 / num_classes;
  for (int g = 0; g < num_classes; ++g) {
    // Conditional mean over the bin via midpoint sampling (exact enough for
    // provisioning; the overall mean is preserved to the same resolution).
    double acc = 0.0;
    for (int s = 0; s < resolution; ++s) {
      const double u = (g + (s + 0.5) / resolution) * bin;
      const double value = quantile(u);
      CM_ENSURES(value >= 0.0);
      acc += value;
    }
    // Appended, not `"q" + std::to_string(...)`: GCC 12 at -O3 warns
    // -Wrestrict on the latter.
    std::string name = "q";
    name += std::to_string(g + 1);
    classes.push_back(PeerClass{std::move(name), acc / resolution, bin});
  }
  return classes;
}

P2pSupply solve_p2p_supply(ChunkAvailability availability,
                           const ChannelCapacityPlan& capacity,
                           const std::vector<double>& population,
                           const std::vector<PeerClass>& classes,
                           double streaming_rate, const P2pOptions& options) {
  validate_peer_classes(classes);
  CM_EXPECTS(streaming_rate > 0.0);
  const std::size_t j = availability.owners.size();
  const std::size_t g_count = classes.size();
  CM_EXPECTS(capacity.chunks.size() == j);
  CM_EXPECTS(population.size() == j);

  P2pSupply out;
  out.availability = std::move(availability);
  out.peer_supply.assign(j, 0.0);
  out.class_supply = util::Matrix(g_count, j);
  out.cloud_residual.assign(j, 0.0);

  // Rarest first: ascending expected owner count (Sec. IV-C), index
  // tie-break for determinism.
  out.rarest_order.resize(j);
  std::iota(out.rarest_order.begin(), out.rarest_order.end(), std::size_t{0});
  std::stable_sort(out.rarest_order.begin(), out.rarest_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return out.availability.owners[a] < out.availability.owners[b];
                   });

  const double total_population =
      std::accumulate(population.begin(), population.end(), 0.0);

  // Per-class running pledges (Σ of class g's Γ shares so far) and the
  // upload each class can still offer the current chunk.
  std::vector<double> pledged(g_count, 0.0);
  std::vector<double> avail(g_count, 0.0);
  for (std::size_t k = 0; k < j; ++k) {
    const std::size_t chunk = out.rarest_order[k];
    const double nu_k = out.availability.owners[chunk];
    if (nu_k <= 0.0 || total_population <= 0.0) continue;

    const double demand_cap =
        options.demand_cap == P2pDemandCap::kStreamingRateLiteral
            ? capacity.chunks[chunk].servers * streaming_rate
            : capacity.chunks[chunk].bandwidth;

    // f_g·ν_k class-g owners, each with headroom u_g − (class pledges per
    // class member).
    double total_avail = 0.0;
    for (std::size_t g = 0; g < g_count; ++g) {
      const double pledged_per_peer =
          pledged[g] / (classes[g].fraction * total_population);
      avail[g] = classes[g].fraction * nu_k *
                 std::max(0.0, classes[g].upload - pledged_per_peer);
      total_avail += avail[g];
    }
    if (total_avail <= 0.0) continue;

    const double gamma = std::min(demand_cap, total_avail);
    out.peer_supply[chunk] = gamma;
    for (std::size_t g = 0; g < g_count; ++g) {
      // gamma · (avail_g / total) is exactly gamma for a one-class mix.
      const double share = gamma * (avail[g] / total_avail);
      out.class_supply(g, chunk) = share;
      pledged[g] += share;
    }
  }

  for (std::size_t i = 0; i < j; ++i) {
    out.cloud_residual[i] =
        std::max(0.0, capacity.chunks[i].bandwidth - out.peer_supply[i]);
  }
  return out;
}

}  // namespace cloudmedia::core
