#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// The fastest time of each segment across repetitions. Every repetition
/// lists the same segments in the same order (throws otherwise); a
/// segment's minimum is its time with the least interference from the
/// host, and their sum estimates a repetition on a quiet host.
[[nodiscard]] std::vector<double> segment_minima(
    const std::vector<std::vector<double>>& repetitions);

/// Sum of `values`.
[[nodiscard]] double sum(const std::vector<double>& values);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// sample at or below it, so exactly samples_beyond(n, p) samples lie above
/// its rank. 0 when empty.
[[nodiscard]] double rank_percentile(std::vector<double> values, double p);

/// Samples ranked strictly beyond the nearest-rank p-th percentile of n.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

}  // namespace perfbench
