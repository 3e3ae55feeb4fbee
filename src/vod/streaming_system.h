#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/cloud_service.h"
#include "cloud/entry_point.h"
#include "core/controller.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "vod/service_pool.h"
#include "vod/tracker.h"
#include "workload/scenario.h"

namespace cloudmedia::vod {

/// Runtime knobs of the emulated CloudMedia deployment.
struct StreamingOptions {
  core::StreamingMode mode = core::StreamingMode::kClientServer;
  /// The paper runs the provisioning algorithm every T = 1 hour (Sec. V-B).
  double provisioning_interval = 3600.0;
  /// How often bandwidth is re-split across a channel's chunks: the cloud
  /// share follows current requests (VMs serve whichever of their chunks
  /// is asked for, Sec. V-A2), and in P2P mode peer upload follows the
  /// rarest-first scheduler (Sec. IV-C).
  double rebalance_interval = 30.0;
  /// Standby weight an idle chunk keeps when the channel's cloud bandwidth
  /// is re-split (so a fresh request is not starved until the next tick).
  double standby_weight = 0.25;
  /// Bandwidth / population sampling cadence for the metrics series.
  double sample_interval = 60.0;
  /// Streaming quality is "the percentage of users ... with smooth
  /// playback in the past 5 minutes" (Sec. VI-B).
  double quality_interval = 300.0;
  double quality_window = 300.0;
  /// Issue an initial plan at t = 0 from the provider's prior knowledge
  /// (ground-truth arrival rates), as the paper's provider does when first
  /// deploying ("based on the application's empirical user scale and
  /// viewing pattern information", Sec. V-B).
  bool bootstrap_plan = true;
  /// The cloud's public access point (Sec. V-B): referral tickets and the
  /// port-forwarding table, exercised on every chunk request that needs
  /// cloud service. Pure admission accounting — bandwidth is unaffected.
  cloud::EntryPointConfig entry;
};

/// One peer (VoD user). Owned chunks stay buffered until departure
/// (Sec. III-B: the playback buffer caches any one video entirely).
///
/// Peers live in a slab (see StreamingSystem): the object is recycled
/// across sessions — `id` is the stable monotone public identity, while
/// `generation`/`live` are slab bookkeeping. `walk` and `owned` keep
/// their capacity across reuse, so steady-state arrivals allocate
/// nothing.
struct Peer {
  std::uint64_t id = 0;
  int channel = 0;
  double uplink = 0.0;          ///< bytes/s contributed in P2P mode
  double arrival_time = 0.0;
  std::vector<int> walk;        ///< predetermined chunk walk
  std::size_t position = 0;     ///< index into walk
  std::vector<bool> owned;      ///< buffered chunks
  int owned_count = 0;          ///< set bits in `owned`
  double last_late = -1e300;    ///< completion time of last late retrieval
  bool downloading = false;
  double download_start = 0.0;
  std::uint64_t job_id = 0;     ///< in-flight pool job (when downloading)

  // --- slab bookkeeping (maintained by StreamingSystem) ----------------
  std::uint32_t generation = 0; ///< bumped on free; stale handles miss
  bool live = false;
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

/// Rarest-first rebalance work: observer tallies (no RNG, no events).
struct RebalanceCounters {
  std::uint64_t ticks = 0;         ///< rebalance passes
  std::uint64_t visits = 0;        ///< owner-list entries read
  std::uint64_t member_cells = 0;  ///< Σ P2P members × J a rebuild would scan
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
  /// the memory-footprint proxy the sweep retention tests assert on.
  [[nodiscard]] std::size_t total_samples() const noexcept;

  /// Keep every `stride`-th sample of every series (counters untouched).
  /// This is the `keep_results` memory valve: a big-grid sweep that only
  /// needs series *shapes* can shrink its resident results ~stride-fold.
  void downsample(std::size_t stride);
};

/// The full CloudMedia system (Fig. 3): user swarms and P2P overlays on one
/// side, the cloud infrastructure on the other, the tracker + controller
/// loop in between. Deterministic for a given Workload seed.
///
/// Peer storage is a generation-guarded slab (the same pattern as
/// CohortSystem's SoA arena): peers occupy recycled slots in one
/// contiguous vector, each channel (and each chunk pool) keeps a dense
/// vector of member (owner) slots sorted by peer id, and every scheduled
/// event or pool job tags the peer by handle = slot | (generation << 32).
/// A handle from a departed session fails the generation check and the
/// event is dropped — the same miss semantics the old unordered_map gave,
/// without any hashing on the arrival/completion/dwell hot path. Public
/// peer `id`s remain monotone and are what every order-sensitive path
/// (eviction, rarest-first rebalance) sorts by, so iteration order — and
/// therefore every float summation — is explicit, not hash-accidental.
class StreamingSystem {
 public:
  StreamingSystem(sim::Simulator& simulator, const workload::Workload& workload,
                  core::VodParameters params, cloud::CloudService& cloud,
                  std::unique_ptr<core::Controller> controller,
                  StreamingOptions options);

  /// Schedule arrival streams and periodic tasks. Call once, then drive the
  /// simulator (sim.run_until(...)).
  void start();

  [[nodiscard]] const SystemMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] SystemMetrics& metrics() noexcept { return metrics_; }

  // --- introspection (tests, benches) -----------------------------------
  [[nodiscard]] std::size_t current_users() const noexcept { return live_peers_; }
  [[nodiscard]] std::size_t channel_users(int channel) const;
  [[nodiscard]] int owner_count(int channel, int chunk) const;
  [[nodiscard]] int position_count(int channel, int chunk) const;
  [[nodiscard]] ServicePool& pool(int channel, int chunk);
  [[nodiscard]] Tracker& tracker() noexcept { return tracker_; }
  /// The provisioning controller (mutable: the experiment runner's timed
  /// scenario ops renegotiate its budgets mid-run).
  [[nodiscard]] core::Controller& controller() noexcept { return *controller_; }
  [[nodiscard]] cloud::EntryPoint& entry_point() noexcept { return entry_point_; }
  [[nodiscard]] const cloud::EntryPoint& entry_point() const noexcept {
    return entry_point_;
  }
  [[nodiscard]] const core::ProvisioningPlan* last_plan() const noexcept {
    return last_plan_ ? last_plan_.get() : nullptr;
  }
  /// Instantaneous smooth-playback fraction (1.0 when no users).
  [[nodiscard]] double system_quality_now() const;
  [[nodiscard]] double channel_quality_now(int channel) const;
  /// Sum of instantaneous cloud rates across pools (bytes/s).
  [[nodiscard]] double cloud_rate_now() const;
  [[nodiscard]] double peer_rate_now() const;

  /// Visit every live peer (slab order — ascending slot, not id).
  template <typename Fn>
  void for_each_peer(Fn&& fn) const {
    for (const Peer& peer : slab_) {
      if (peer.live) fn(peer);
    }
  }
  /// Resolve a generation-guarded peer handle; nullptr if the peer has
  /// departed (even when its slot has since been recycled).
  [[nodiscard]] const Peer* find_peer(std::uint64_t handle) const noexcept;
  /// The handle events/pool jobs carry for `peer` in its current session.
  [[nodiscard]] std::uint64_t peer_handle(const Peer& peer) const noexcept;
  /// Member handles of `channel`, sorted by monotone peer id — the
  /// deterministic order eviction and the standby-share pass use.
  [[nodiscard]] std::vector<std::uint64_t> channel_peer_handles(int channel) const;
  /// Handles of the live peers owning `chunk` of `channel`, sorted by
  /// monotone peer id — the lists the rarest-first waterfall sums over.
  [[nodiscard]] std::vector<std::uint64_t> owner_handles(int channel, int chunk) const;
  [[nodiscard]] const RebalanceCounters& rebalance_counters() const noexcept {
    return rebalance_;
  }
  [[nodiscard]] std::uint64_t rebalance_visits() const noexcept {
    return rebalance_.visits;
  }

  [[nodiscard]] double uplink_sum(int channel) const;

  /// Force every current member of `channel` to leave immediately —
  /// mid-download departures abort their in-flight pool job. Models an
  /// operator pulling a channel (and exercises the depart-while-downloading
  /// path, which the organic lifecycle — depart only after a completed
  /// chunk — never reaches). Returns how many peers were evicted.
  std::size_t evict_channel(int channel);

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

 private:
  void schedule_next_arrival(int channel);
  void handle_arrival(int channel, double time);
  void begin_chunk(Peer& peer);
  void handle_completion(int channel, int chunk,
                         const ServicePool::Completion& completion);
  void handle_dwell_end(std::uint64_t handle);
  void advance_walk(Peer& peer);
  void depart(Peer& peer);

  [[nodiscard]] Peer* find_peer_mut(std::uint64_t handle) noexcept;
  [[nodiscard]] std::uint32_t slot_of(const Peer& peer) const noexcept;

  void run_provisioning(double now);
  void apply_plan(const core::ProvisioningPlan& plan);
  void record_plan_series(double now);
  void rebalance_capacity();
  void sample_bandwidth(double now);
  void sample_quality(double now);

  [[nodiscard]] std::size_t pool_index(int channel, int chunk) const;
  [[nodiscard]] bool peer_is_smooth(const Peer& peer) const;

  sim::Simulator* sim_;
  const workload::Workload* workload_;
  core::VodParameters params_;
  cloud::CloudService* cloud_;
  std::unique_ptr<core::Controller> controller_;
  StreamingOptions options_;

  int num_channels_;
  int num_chunks_;

  std::vector<std::unique_ptr<ServicePool>> pools_;  ///< C × J
  std::vector<double> served_cloud_snapshot_;        ///< bytes at interval start

  Tracker tracker_;
  cloud::EntryPoint entry_point_;

  // Peer slab: slot-indexed, LIFO free list, generation-guarded handles
  // (see the class comment). members_ (per channel) and owners_ (per
  // pool) hold live slots sorted by ascending peer id: arrivals append to
  // members_ (ids are monotone), a chunk's first completion binary-search-
  // inserts into owners_ and departures binary-search-erase from both, so
  // the rebalance/eviction order is free — no per-tick sort or rebuild.
  std::vector<Peer> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_peers_ = 0;
  std::vector<std::vector<std::uint32_t>> members_;         ///< per channel
  std::vector<std::vector<std::uint32_t>> owners_;          ///< per pool
  std::vector<int> position_count_;                         ///< per pool
  std::vector<double> uplink_sum_;                          ///< per channel

  std::vector<double> remaining_, standby_;       ///< per-slot rebalance scratch
  std::vector<double> cloud_alloc_, peer_alloc_;  ///< per-chunk rebalance scratch
  std::vector<std::size_t> order_;                ///< chunks by rarity (scratch)
  RebalanceCounters rebalance_;

  std::vector<workload::PoissonArrivals> arrivals_;
  std::vector<std::uint64_t> next_user_index_;
  std::vector<double> last_arrival_time_;
  std::uint64_t next_peer_id_ = 1;

  std::shared_ptr<core::ProvisioningPlan> last_plan_;
  SystemMetrics metrics_;
  bool started_ = false;
};

}  // namespace cloudmedia::vod
