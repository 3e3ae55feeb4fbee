#pragma once

#include <array>

namespace cloudmedia::expr::paper {

// Reference values reported in the paper's evaluation (Sec. VI), printed by
// the figure reports (expr/figures.cc) next to measured values.

/// Fig. 5: average streaming quality.
inline constexpr double kQualityClientServer = 0.97;
inline constexpr double kQualityP2p = 0.95;

/// Fig. 10: average VM rental cost, $/hour.
inline constexpr double kVmCostClientServer = 48.0;
inline constexpr double kVmCostP2p = 4.27;

/// Sec. VI-C: NFS storage cost, $/day.
inline constexpr double kStorageCostPerDay = 0.018;

/// Sec. VI-C: VM boot latency, seconds ("around 25 seconds").
inline constexpr double kVmBootSeconds = 25.0;

/// Fig. 11: mean-peer-upload/streaming-rate ratios and the reported
/// average streaming qualities.
inline constexpr std::array<double, 3> kFig11Ratios = {0.9, 1.0, 1.2};
inline constexpr std::array<double, 3> kFig11Quality = {0.95, 0.95, 1.0};

/// Fig. 8/9: the four representative channels' average sizes.
inline constexpr std::array<double, 4> kRepresentativeChannelSizes = {60.0, 100.0,
                                                                      200.0, 600.0};

/// Fig. 4 scale, for sanity context: reserved/used bandwidth is plotted in
/// the hundreds-to-~2200 Mbps range over ~100 hours.
inline constexpr double kFig4MaxMbps = 2200.0;

}  // namespace cloudmedia::expr::paper
