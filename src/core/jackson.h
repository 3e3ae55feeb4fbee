#pragma once

#include <span>
#include <vector>

#include "util/matrix.h"

namespace cloudmedia::core {

/// The open Jackson network of Sec. IV-A, one network per video channel:
/// queue i is chunk i, external arrivals enter queue i with probability
/// entry[i] (α at the first chunk, uniform elsewhere), and jobs move
/// between queues according to the sub-stochastic chunk transfer matrix P.
///
/// Solves the paper's traffic equations (Eqn. (1)):
///   λ_i = entry_i · Λ + Σ_j λ_j P_ji
/// i.e. λ = (I − Pᵀ)^{-1} (Λ · entry).
///
/// `transfer` must be J×J with non-negative entries and row sums <= 1;
/// at least one row must leak probability (sum < 1) for the network to be
/// open — otherwise the linear system is singular and this throws.
[[nodiscard]] std::vector<double> solve_traffic_equations(
    const util::Matrix& transfer, const std::vector<double>& entry,
    double external_rate);

/// The traffic equations' I − Pᵀ for a validated `transfer`, factored once
/// for any number of (entry, Λ) right-hand sides. Throws like
/// solve_traffic_equations on an invalid or closed network.
[[nodiscard]] util::LuFactors factor_traffic_equations(
    const util::Matrix& transfer);

/// One right-hand side of Eqn. (1): external arrivals at rate Λ that enter
/// queue i with probability entry[i].
struct ExternalArrivals {
  std::span<const double> entry;
  double rate = 0.0;
};

/// Eqn. (1) for k networks that share `traffic` (factor_traffic_equations),
/// in one multi-column pass: element c of the result is the λ vector of
/// arrivals[c], bitwise what solving that column alone gives.
[[nodiscard]] std::vector<std::vector<double>> solve_traffic_equations(
    const util::LuFactors& traffic, std::span<const ExternalArrivals> arrivals);

/// Total external departure flow Σ_i λ_i (1 − Σ_j P_ij). At equilibrium
/// this equals the external arrival rate Λ (conservation); exposed for
/// validation and tests.
[[nodiscard]] double departure_flow(const util::Matrix& transfer,
                                    const std::vector<double>& lambdas);

/// Validate that `transfer` is a sub-stochastic matrix (throws otherwise).
void validate_transfer_matrix(const util::Matrix& transfer);

}  // namespace cloudmedia::core
