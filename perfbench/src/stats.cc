#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile of n samples. The epsilon
/// keeps exact products (90% of 120 = 108) from rounding up a rank.
std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> segment_minima(const std::vector<std::vector<double>>& repetitions) {
  if (repetitions.empty()) return {};
  std::vector<double> minima = repetitions.front();
  for (const std::vector<double>& rep : repetitions) {
    if (rep.size() != minima.size()) {
      throw std::runtime_error("repetitions differ in their number of segments");
    }
    for (std::size_t i = 0; i < rep.size(); ++i) minima[i] = std::min(minima[i], rep[i]);
  }
  return minima;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double rank_percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

}  // namespace perfbench
