#include "core/jackson.h"

#include <utility>

#include "util/check.h"

namespace cloudmedia::core {

void validate_transfer_matrix(const util::Matrix& transfer) {
  CM_EXPECTS(transfer.rows() == transfer.cols());
  CM_EXPECTS(transfer.rows() >= 1);
  for (std::size_t i = 0; i < transfer.rows(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < transfer.cols(); ++j) {
      CM_EXPECTS(transfer(i, j) >= 0.0);
      row += transfer(i, j);
    }
    CM_EXPECTS(row <= 1.0 + 1e-9);
  }
}

util::LuFactors factor_traffic_equations(const util::Matrix& transfer) {
  validate_transfer_matrix(transfer);
  const std::size_t n = transfer.rows();
  util::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      a(i, k) = (i == k ? 1.0 : 0.0) - transfer(k, i);
    }
  }
  return util::LuFactors(std::move(a));
}

std::vector<double> solve_traffic_equations(const util::Matrix& transfer,
                                            const std::vector<double>& entry,
                                            double external_rate) {
  const ExternalArrivals arrivals{entry, external_rate};
  return std::move(solve_traffic_equations(factor_traffic_equations(transfer),
                                           std::span(&arrivals, 1))
                       .front());
}

std::vector<std::vector<double>> solve_traffic_equations(
    const util::LuFactors& traffic, std::span<const ExternalArrivals> arrivals) {
  const std::size_t n = traffic.size();
  const std::size_t k = arrivals.size();
  std::vector<double> b(n * k);
  for (std::size_t c = 0; c < k; ++c) {
    const ExternalArrivals& a = arrivals[c];
    CM_EXPECTS(a.entry.size() == n);
    CM_EXPECTS(a.rate >= 0.0);
    double entry_sum = 0.0;
    for (double e : a.entry) {
      CM_EXPECTS(e >= 0.0);
      entry_sum += e;
    }
    CM_EXPECTS(entry_sum <= 1.0 + 1e-9);
    for (std::size_t i = 0; i < n; ++i) b[i * k + c] = a.rate * a.entry[i];
  }
  traffic.solve_columns(b, k);

  std::vector<std::vector<double>> lambdas(k, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < k; ++c) {
      double l = b[i * k + c];
      // Guard against -0 / tiny negative round-off; genuine negatives would
      // mean the transfer matrix was not sub-stochastic.
      CM_ENSURES(l > -1e-9);
      if (l < 0.0) l = 0.0;
      lambdas[c][i] = l;
    }
  }
  return lambdas;
}

double departure_flow(const util::Matrix& transfer,
                      const std::vector<double>& lambdas) {
  CM_EXPECTS(lambdas.size() == transfer.rows());
  double flow = 0.0;
  for (std::size_t i = 0; i < transfer.rows(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < transfer.cols(); ++j) row += transfer(i, j);
    flow += lambdas[i] * (1.0 - row);
  }
  return flow;
}

}  // namespace cloudmedia::core
