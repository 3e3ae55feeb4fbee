#include "workload/scenario.h"

#include <cmath>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/json.h"
#include "util/matrix.h"

namespace cloudmedia::workload {

namespace {
// RNG stream purposes; arbitrary distinct constants.
constexpr std::uint64_t kPurposeArrivals = 0xA771;
constexpr std::uint64_t kPurposeSession = 0x5E55;
constexpr std::uint64_t kPurposeCohort = 0xC040;

WorkloadConfig validated(WorkloadConfig config) {
  config.validate();
  return config;
}

BoundedPareto make_uplink(const WorkloadConfig& cfg) {
  BoundedPareto raw(cfg.uplink_lower, cfg.uplink_upper, cfg.uplink_shape);
  if (cfg.uplink_mean_ratio <= 0.0) return raw;
  return raw.scaled_to_mean(cfg.uplink_mean_ratio * cfg.streaming_rate);
}
}  // namespace

void WorkloadConfig::validate() const {
  CM_EXPECTS(num_channels >= 1);
  CM_EXPECTS(chunks_per_video >= 1);
  CM_EXPECTS(std::isfinite(zipf_exponent) && zipf_exponent >= 0.0);
  CM_EXPECTS(std::isfinite(total_arrival_rate) && total_arrival_rate > 0.0);
  CM_EXPECTS(uplink_lower > 0.0 && uplink_upper > uplink_lower &&
             std::isfinite(uplink_upper));
  CM_EXPECTS(std::isfinite(uplink_shape) && uplink_shape > 0.0);
  CM_EXPECTS(std::isfinite(uplink_mean_ratio));
  CM_EXPECTS(std::isfinite(streaming_rate) && streaming_rate > 0.0);
  CM_EXPECTS(std::isfinite(refresh_period_hours) &&
             refresh_period_hours >= 0.0);
  behavior.validate();
}

Workload::Workload(WorkloadConfig config, std::uint64_t seed,
                   double envelope_headroom)
    : config_(validated(std::move(config))),
      root_(seed),
      envelope_headroom_(envelope_headroom),
      weights_(zipf_weights(config_.num_channels, config_.zipf_exponent)),
      uplink_(make_uplink(config_)),
      session_gen_(config_.behavior, config_.chunks_per_video) {
  CM_EXPECTS(envelope_headroom >= 1.0);
  // A channel whose thinning envelope is 0 would abort its arrival stream
  // mid-run: a huge Zipf exponent underflows the tail channels' weights.
  for (int c = 0; c < config_.num_channels; ++c) {
    if (!(channel_max_rate(c) > 0.0)) {
      throw util::PreconditionError(
          "channel " + std::to_string(c) +
          " has a zero arrival envelope: zipf=" +
          util::format_number(config_.zipf_exponent) +
          " underflows its popularity weight, or arrival=" +
          util::format_number(config_.total_arrival_rate) +
          " times the diurnal peak is 0");
    }
  }
}

void Workload::set_config(const WorkloadConfig& config) {
  config.validate();
  CM_EXPECTS(config.num_channels == config_.num_channels);
  CM_EXPECTS(config.chunks_per_video == config_.chunks_per_video);
  CM_EXPECTS(config.streaming_rate == config_.streaming_rate);
  config_ = config;
  weights_ = zipf_weights(config.num_channels, config.zipf_exponent);
  uplink_ = make_uplink(config);
  session_gen_ = SessionGenerator(config.behavior, config.chunks_per_video);
}

double Workload::channel_weight_at(int channel, double t) const {
  CM_EXPECTS(channel >= 0 && channel < config_.num_channels);
  if (config_.refresh_period_hours <= 0.0 || config_.refresh_shift == 0) {
    return weights_[static_cast<std::size_t>(channel)];
  }
  // Epoch e rotates channel c onto rank (c + e*shift) mod n. Total arrival
  // rate is conserved (the weights are a permutation of themselves), only
  // who is popular changes.
  const auto epoch = static_cast<long long>(
      std::floor(t / (config_.refresh_period_hours * 3600.0)));
  const auto n = static_cast<long long>(config_.num_channels);
  long long rank = (channel + epoch * config_.refresh_shift) % n;
  if (rank < 0) rank += n;
  return weights_[static_cast<std::size_t>(rank)];
}

double Workload::channel_rate(int channel, double t) const {
  return config_.total_arrival_rate * channel_weight_at(channel, t) *
         config_.diurnal.multiplier(t);
}

double Workload::mean_rate(int channel, double t0, double t1) const {
  CM_EXPECTS(t1 > t0);
  double acc = 0.0;
  int n = 0;
  for (double t = t0; t < t1; t += 60.0) {
    acc += channel_rate(channel, t);
    ++n;
  }
  return acc / n;
}

double Workload::channel_max_rate(int channel) const {
  CM_EXPECTS(channel >= 0 && channel < config_.num_channels);
  // Under a refresh the channel can rotate onto any rank, so the top Zipf
  // weight (rank 0; zipf_weights sorts descending) is the tight bound.
  const bool refreshing =
      config_.refresh_period_hours > 0.0 && config_.refresh_shift != 0;
  const double weight =
      refreshing ? weights_[0] : weights_[static_cast<std::size_t>(channel)];
  return config_.total_arrival_rate * weight *
         config_.diurnal.max_multiplier();
}

PoissonArrivals Workload::make_arrivals(int channel) const {
  CM_EXPECTS(channel >= 0 && channel < config_.num_channels);
  return PoissonArrivals(
      [this, channel](double t) { return channel_rate(channel, t); },
      channel_max_rate(channel) * envelope_headroom_,
      root_.derive(kPurposeArrivals, static_cast<std::uint64_t>(channel)));
}

CohortArrivals Workload::make_cohort_arrivals(int channel,
                                              double window) const {
  CM_EXPECTS(channel >= 0 && channel < config_.num_channels);
  return CohortArrivals(
      [this, channel](double t) { return channel_rate(channel, t); }, window,
      root_.derive(kPurposeCohort, static_cast<std::uint64_t>(channel)));
}

SessionScript Workload::make_session(int channel,
                                     std::uint64_t user_index) const {
  CM_EXPECTS(channel >= 0 && channel < config_.num_channels);
  // One derived stream per (channel, user ordinal): the walk and uplink of
  // the k-th arrival to a channel do not depend on anything else.
  util::Rng rng = root_.derive(
      kPurposeSession,
      (static_cast<std::uint64_t>(channel) << 40) ^ user_index);
  SessionScript script;
  script.channel = channel;
  script.chunks = session_gen_.sample_walk(rng);
  script.uplink = uplink_.sample(rng);
  return script;
}

double Workload::expected_session_chunks() const {
  const int j = config_.chunks_per_video;
  const util::Matrix p = config_.behavior.transfer_matrix(j);
  const std::vector<double> entry = config_.behavior.entry_distribution(j);
  // Expected visits v solves v = entry + Pᵀ v  (absorbing-chain identity).
  util::Matrix a = util::Matrix::identity(static_cast<std::size_t>(j));
  const util::Matrix pt = p.transpose();
  a -= pt;
  const std::vector<double> visits = util::LuFactors(std::move(a)).solve(entry);
  double total = 0.0;
  for (double v : visits) total += v;
  return total;
}

}  // namespace cloudmedia::workload
