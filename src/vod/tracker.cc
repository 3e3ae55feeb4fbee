#include "vod/tracker.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cloudmedia::vod {

Tracker::Tracker(int num_channels, int num_chunks)
    : num_channels_(num_channels), num_chunks_(num_chunks) {
  CM_EXPECTS(num_channels >= 1);
  CM_EXPECTS(num_chunks >= 1);
  counts_.resize(static_cast<std::size_t>(num_channels));
  for (ChannelCounts& c : counts_) {
    c.entries.assign(static_cast<std::size_t>(num_chunks), 0.0);
    c.transitions.assign(static_cast<std::size_t>(num_chunks) *
                             static_cast<std::size_t>(num_chunks),
                         0.0);
    c.leaves.assign(static_cast<std::size_t>(num_chunks), 0.0);
  }
}

Tracker::ChannelCounts& Tracker::channel(int c) {
  CM_EXPECTS(c >= 0 && c < num_channels_);
  return counts_[static_cast<std::size_t>(c)];
}

const Tracker::ChannelCounts& Tracker::channel(int c) const {
  CM_EXPECTS(c >= 0 && c < num_channels_);
  return counts_[static_cast<std::size_t>(c)];
}

void Tracker::record_arrival(int channel_id, int entry_chunk, double weight) {
  CM_EXPECTS(entry_chunk >= 0 && entry_chunk < num_chunks_);
  CM_EXPECTS(weight >= 0.0);
  ChannelCounts& c = channel(channel_id);
  c.arrivals += weight;
  c.entries[static_cast<std::size_t>(entry_chunk)] += weight;
}

void Tracker::record_transition(int channel_id, int from,
                                std::optional<int> to) {
  CM_EXPECTS(from >= 0 && from < num_chunks_);
  ChannelCounts& c = channel(channel_id);
  if (to) {
    CM_EXPECTS(*to >= 0 && *to < num_chunks_);
    c.transitions[static_cast<std::size_t>(from) *
                      static_cast<std::size_t>(num_chunks_) +
                  static_cast<std::size_t>(*to)] += 1.0;
  } else {
    c.leaves[static_cast<std::size_t>(from)] += 1.0;
  }
}

void Tracker::record_flows(int channel_id, int from,
                           std::span<const double> flows, double leave) {
  CM_EXPECTS(from >= 0 && from < num_chunks_);
  CM_EXPECTS(flows.size() == static_cast<std::size_t>(num_chunks_));
  CM_EXPECTS(leave >= 0.0);
  bool non_negative = true;
  for (const double flow : flows) non_negative &= flow >= 0.0;
  CM_EXPECTS(non_negative);
  ChannelCounts& c = channel(channel_id);
  double* const row =
      c.transitions.data() +
      static_cast<std::size_t>(from) * static_cast<std::size_t>(num_chunks_);
  for (std::size_t to = 0; to < flows.size(); ++to) row[to] += flows[to];
  c.leaves[static_cast<std::size_t>(from)] += leave;
}

core::TrackerReport Tracker::harvest(
    double interval_start, double interval_length,
    const std::vector<std::vector<double>>& occupancy,
    const std::vector<double>& mean_uplink,
    const std::vector<std::vector<double>>& served_cloud_bandwidth) {
  CM_EXPECTS(interval_length > 0.0);
  CM_EXPECTS(occupancy.size() == static_cast<std::size_t>(num_channels_));
  CM_EXPECTS(mean_uplink.size() == static_cast<std::size_t>(num_channels_));
  CM_EXPECTS(served_cloud_bandwidth.size() ==
             static_cast<std::size_t>(num_channels_));

  const auto j = static_cast<std::size_t>(num_chunks_);
  core::TrackerReport report;
  report.interval_start = interval_start;
  report.interval_length = interval_length;
  report.channels.resize(static_cast<std::size_t>(num_channels_));

  for (int ch = 0; ch < num_channels_; ++ch) {
    ChannelCounts& c = channel(ch);
    core::ChannelObservation& obs =
        report.channels[static_cast<std::size_t>(ch)];

    obs.arrival_rate = c.arrivals / interval_length;

    obs.entry.assign(j, 0.0);
    if (c.arrivals > 0.0) {
      for (std::size_t i = 0; i < j; ++i) {
        obs.entry[i] = c.entries[i] / c.arrivals;
      }
    } else {
      // No arrivals: the entry distribution is moot (Λ̂ = 0); keep it a
      // valid distribution for the traffic equations.
      obs.entry[0] = 1.0;
    }

    obs.transfer = util::Matrix(j, j);
    for (std::size_t from = 0; from < j; ++from) {
      const double* const row = c.transitions.data() + from * j;
      double row_total = c.leaves[from];
      for (std::size_t to = 0; to < j; ++to) row_total += row[to];
      if (row_total <= 0.0) continue;  // unobserved chunk: row stays zero
      for (std::size_t to = 0; to < j; ++to) {
        obs.transfer(from, to) = row[to] / row_total;
      }
    }

    obs.occupancy = occupancy[static_cast<std::size_t>(ch)];
    obs.mean_peer_uplink = mean_uplink[static_cast<std::size_t>(ch)];
    obs.served_cloud_bandwidth =
        served_cloud_bandwidth[static_cast<std::size_t>(ch)];

    // Reset for the next interval.
    c.arrivals = 0.0;
    std::fill(c.entries.begin(), c.entries.end(), 0.0);
    std::fill(c.leaves.begin(), c.leaves.end(), 0.0);
    std::fill(c.transitions.begin(), c.transitions.end(), 0.0);
  }
  return report;
}

long Tracker::arrivals(int channel_id) const {
  return std::lround(channel(channel_id).arrivals);
}

long Tracker::transitions(int channel_id, int from, int to) const {
  CM_EXPECTS(from >= 0 && from < num_chunks_ && to >= 0 && to < num_chunks_);
  return std::lround(
      channel(channel_id)
          .transitions[static_cast<std::size_t>(from) *
                           static_cast<std::size_t>(num_chunks_) +
                       static_cast<std::size_t>(to)]);
}

long Tracker::leaves(int channel_id, int from) const {
  CM_EXPECTS(from >= 0 && from < num_chunks_);
  return std::lround(channel(channel_id).leaves[static_cast<std::size_t>(from)]);
}

}  // namespace cloudmedia::vod
