#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/controller.h"

namespace cloudmedia::vod {

/// The tracking server of Sec. V-B: besides brokering peer lists (implicit
/// in our swarm state), it "summarizes the average user arrival rate Λ(c)
/// to each channel ... as well as the viewing patterns P(c)ij" over each
/// provisioning interval and reports them to the controller.
///
/// Counters accumulate between harvests; `harvest` converts them into a
/// core::TrackerReport (empirical Λ̂, entry distribution, transfer matrix
/// P̂) and resets them for the next interval.
class Tracker {
 public:
  Tracker(int num_channels, int num_chunks);

  /// `weight` lets the cohort engine record a whole batch of
  /// statistically-identical viewers in one call; the discrete engine's
  /// default of 1.0 keeps every harvest byte-identical (integer-valued
  /// doubles below 2^53 add and divide exactly like the longs they were).
  void record_arrival(int channel, int entry_chunk, double weight = 1.0);
  /// One user's move out of chunk `from`; `to` empty = the user left the
  /// channel after `from`.
  void record_transition(int channel, int from, std::optional<int> to);
  /// One whole row of weighted flows out of chunk `from`: `flows[to]` into
  /// each chunk (exactly num_chunks() entries) and `leave` out of the
  /// channel. Preconditions are checked once per row; every entry is added,
  /// zeros included (adding +0.0 leaves a counter bit-identical), so a row
  /// of whole counts equals that many record_transition calls.
  void record_flows(int channel, int from, std::span<const double> flows,
                    double leave);

  /// Build the report for the interval [interval_start, interval_start +
  /// interval_length) and reset counters. The caller supplies the
  /// instantaneous snapshots the tracker cannot count by itself:
  /// per-chunk occupancy, per-channel mean peer uplink, and the mean cloud
  /// bandwidth served per chunk over the interval.
  [[nodiscard]] core::TrackerReport harvest(
      double interval_start, double interval_length,
      const std::vector<std::vector<double>>& occupancy,
      const std::vector<double>& mean_uplink,
      const std::vector<std::vector<double>>& served_cloud_bandwidth);

  /// Rounded views of the (possibly weighted) counters; exact for the
  /// discrete engine's unit-weight recording.
  [[nodiscard]] long arrivals(int channel) const;
  [[nodiscard]] long transitions(int channel, int from, int to) const;
  [[nodiscard]] long leaves(int channel, int from) const;
  [[nodiscard]] int num_channels() const noexcept { return num_channels_; }
  [[nodiscard]] int num_chunks() const noexcept { return num_chunks_; }

 private:
  struct ChannelCounts {
    double arrivals = 0.0;
    std::vector<double> entries;                  ///< per entry chunk
    std::vector<double> transitions;              ///< [from · J + to]
    std::vector<double> leaves;                   ///< per from-chunk
  };

  [[nodiscard]] ChannelCounts& channel(int c);
  [[nodiscard]] const ChannelCounts& channel(int c) const;

  int num_channels_;
  int num_chunks_;
  std::vector<ChannelCounts> counts_;
};

}  // namespace cloudmedia::vod
