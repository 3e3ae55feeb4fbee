#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cloud/cloud_service.h"
#include "core/controller.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/stats.h"
#include "vod/service_pool.h"
#include "vod/tracker.h"
#include "workload/scenario.h"

namespace cloudmedia::vod {

/// Runtime knobs of the emulated CloudMedia deployment, and the paper's
/// fixed cadences it runs on.
struct StreamingOptions {
  core::StreamingMode mode = core::StreamingMode::kClientServer;
  /// Bandwidth / population sampling cadence for the metrics series.
  double sample_interval = 60.0;

  /// The paper runs the provisioning algorithm every T = 1 hour (Sec. V-B).
  static constexpr double provisioning_interval = 3600.0;
  /// How often bandwidth is re-split across a channel's chunks: the cloud
  /// share follows current requests (VMs serve whichever of their chunks
  /// is asked for, Sec. V-A2), and in P2P mode peer upload follows the
  /// rarest-first scheduler (Sec. IV-C).
  static constexpr double rebalance_interval = 30.0;
  /// Streaming quality is "the percentage of users ... with smooth
  /// playback in the past 5 minutes" (Sec. VI-B).
  static constexpr double quality_interval = 300.0;
  static constexpr double quality_window = 300.0;
};

/// Per-channel metric series (the scatter sources for Figs. 6–9).
struct ChannelSeries {
  util::TimeSeries size;               ///< concurrent users
  util::TimeSeries quality;            ///< smooth fraction
  util::TimeSeries provisioned_mbps;   ///< cloud bandwidth assigned
  util::TimeSeries storage_utility;    ///< Σ u_f Δ_i x_if (Fig. 8)
  util::TimeSeries vm_utility;         ///< Σ ũ_v z_iv (Fig. 9)
};

struct SystemCounters {
  long arrivals = 0;
  long departures = 0;
  long chunk_downloads = 0;
  long late_downloads = 0;
  long buffered_replays = 0;  ///< revisits served from the local buffer
  long rejected_plans = 0;    ///< SLA-rejected submissions
};

struct SystemMetrics {
  util::TimeSeries reserved_mbps;      ///< billed cloud bandwidth (Fig. 4)
  util::TimeSeries used_cloud_mbps;    ///< instantaneous cloud rate (Fig. 4)
  util::TimeSeries used_peer_mbps;     ///< instantaneous peer rate
  util::TimeSeries quality;            ///< system smooth fraction (Fig. 5)
  util::TimeSeries vm_cost_rate;       ///< $/h (Fig. 10)
  util::TimeSeries storage_cost_rate;  ///< $/h
  util::TimeSeries concurrent_users;
  std::vector<ChannelSeries> channels;
  SystemCounters counters;

  /// Total samples retained across every series (system + per-channel) —
  /// the memory-footprint proxy bench_store_smoke reports.
  [[nodiscard]] std::size_t total_samples() const noexcept;
};

/// The CloudMedia deployment of Fig. 3, shared by both simulation engines:
/// the C × J per-(channel, chunk) ServicePools, the tracker + controller
/// loop that plans every T (Sec. V-B), the SLA'd cloud that admits a plan
/// and resizes the VMs, and the metric series.
///
/// Only the way viewers are modelled differs between engines. An engine
/// (StreamingSystem: discrete peers; CohortSystem: fluid cohorts) supplies
/// its population model through the protected hooks — occupancy and uplink
/// harvest, capacity rebalance, quality sampling, current population — and
/// fixes its own start order around schedule_bootstrap() and
/// schedule_periodics(), so event ids and tie-breaks stay per engine.
class Deployment {
 public:
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  Deployment(Deployment&&) = delete;
  Deployment& operator=(Deployment&&) = delete;
  virtual ~Deployment() = default;

  /// Schedule the population events and periodic tasks. Call once, then
  /// drive the simulator (sim.run_until(...)).
  void start();

  [[nodiscard]] const SystemMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] SystemMetrics& metrics() noexcept { return metrics_; }

  // --- introspection (tests, benches) -----------------------------------
  /// Viewers currently in the system (the cohort engine rounds its mass).
  [[nodiscard]] std::size_t current_users() const;
  [[nodiscard]] ServicePool& pool(int channel, int chunk) {
    return *pools_[pool_index(channel, chunk)];
  }
  /// The provisioning controller (mutable: the experiment runner's timed
  /// scenario ops renegotiate its budgets mid-run).
  [[nodiscard]] core::Controller& controller() noexcept { return *controller_; }
  [[nodiscard]] const core::ProvisioningPlan* last_plan() const noexcept {
    return last_plan_ ? &*last_plan_ : nullptr;
  }
  /// The demand estimates' substitution passes (DemandSet) over every plan
  /// so far, rejected ones included.
  [[nodiscard]] std::uint64_t planner_passes() const noexcept {
    return planner_passes_;
  }
  /// Sum of instantaneous cloud rates across pools (bytes/s).
  [[nodiscard]] double cloud_rate_now() const;
  [[nodiscard]] double peer_rate_now() const;

  /// The provider's prior at deployment time (Sec. V-B's "empirical user
  /// scale and viewing pattern information").
  ///
  /// Window-labelling convention: `interval_start` is the start of the
  /// window the report describes. The bootstrap prior describes the
  /// *upcoming* window [now, now+T) — a forecast — so it stamps
  /// `interval_start = now`. A periodic harvest describes the
  /// *just-measured* window [now−T, now), so run_provisioning stamps
  /// `interval_start = now − T`. The two agree: the t=0 bootstrap and the
  /// first harvest (at t=T) both label window [0, T), one as a prior and
  /// one as a measurement — consumers (SeasonalPolicy's time-of-day slot,
  /// ClairvoyantPolicy's look-ahead anchor) treat interval_start uniformly
  /// and never see a negative time.
  [[nodiscard]] core::TrackerReport bootstrap_report() const;

 protected:
  /// Builds pool (channel, chunk)'s completion handler. Handlers call the
  /// engine directly, so a discrete completion costs one indirect call.
  using CompletionForward =
      std::function<ServicePool::CompletionHandler(int channel, int chunk)>;

  Deployment(sim::Simulator& simulator, const workload::Workload& workload,
             core::VodParameters params, cloud::CloudService& cloud,
             std::unique_ptr<core::Controller> controller,
             const StreamingOptions& options, const CompletionForward& forward);

  // --- population hooks ---------------------------------------------------
  /// Schedule the engine's own events and, through schedule_bootstrap() and
  /// schedule_periodics(), the deployment's, in the engine's fixed order.
  virtual void schedule_start() = 0;
  /// Fill the harvest's per-(channel, chunk) occupancy and per-channel mean
  /// peer uplink (both arrive sized and zeroed).
  virtual void harvest_population(std::vector<std::vector<double>>& occupancy,
                                  std::vector<double>& mean_uplink) = 0;
  /// Re-split every channel's cloud and peer bandwidth across its pools:
  /// each rebalance tick and whenever the VM scheduler changes capacity.
  virtual void rebalance_capacity() = 0;
  /// Append one system and one per-channel smooth-fraction sample.
  virtual void sample_quality(double now) = 0;
  /// Viewers in the system / in `channel` (a count, or fluid mass).
  [[nodiscard]] virtual double population() const = 0;
  [[nodiscard]] virtual double channel_population(int channel) const = 0;

  /// The t = 0 plan from bootstrap_report(): the paper's provider plans
  /// its first deployment "based on the application's empirical user scale
  /// and viewing pattern information" (Sec. V-B).
  void schedule_bootstrap();
  /// Provisioning, rebalance, bandwidth and quality periodics, in that order.
  void schedule_periodics();

  /// Inline: both engines index pools on their per-viewer and per-cohort
  /// hot paths.
  [[nodiscard]] std::size_t pool_index(int channel, int chunk) const {
    CM_EXPECTS(channel >= 0 && channel < num_channels_);
    CM_EXPECTS(chunk >= 0 && chunk < num_chunks_);
    return static_cast<std::size_t>(channel) * static_cast<std::size_t>(num_chunks_) +
           static_cast<std::size_t>(chunk);
  }
  /// The cloud half of a rebalance: a VM serves whichever of its chunks is
  /// being requested (Sec. V-A2), so the channel's planned cloud bandwidth
  /// re-splits across chunks in proportion to `demand` plus the standby
  /// weight, which keeps a fresh request from starving until the next tick.
  /// `share` may alias `demand`.
  void split_cloud_share(int channel, std::span<const double> demand,
                         std::span<double> share) const;

  sim::Simulator* sim_;
  const workload::Workload* workload_;
  core::VodParameters params_;
  cloud::CloudService* cloud_;
  StreamingOptions options_;

  int num_channels_;
  int num_chunks_;

  std::vector<std::unique_ptr<ServicePool>> pools_;  ///< C × J
  Tracker tracker_;
  SystemMetrics metrics_;

 private:
  void run_provisioning(double now);
  void apply_plan(core::ProvisioningPlan plan);
  void record_plan_series(double now);
  void sample_bandwidth(double now);

  std::unique_ptr<core::Controller> controller_;
  std::vector<double> served_cloud_snapshot_;  ///< bytes at interval start
  std::optional<core::ProvisioningPlan> last_plan_;
  std::uint64_t planner_passes_ = 0;
  bool started_ = false;
};

}  // namespace cloudmedia::vod
