#pragma once

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

/// Eqn. (1) on factors from factor_traffic_equations.
[[nodiscard]] std::vector<double> solve_traffic_equations(
    const util::LuFactors& traffic, const std::vector<double>& entry,
    double external_rate);

/// Total external departure flow Σ_i λ_i (1 − Σ_j P_ij). At equilibrium
/// this equals the external arrival rate Λ (conservation); exposed for
/// validation and tests.
[[nodiscard]] double departure_flow(const util::Matrix& transfer,
                                    const std::vector<double>& lambdas);

/// Validate that `transfer` is a sub-stochastic matrix (throws otherwise).
void validate_transfer_matrix(const util::Matrix& transfer);

}  // namespace cloudmedia::core
