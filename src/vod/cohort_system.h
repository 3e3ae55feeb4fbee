#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cloud/cloud_service.h"
#include "core/controller.h"
#include "sim/simulator.h"
#include "vod/deployment.h"
#include "workload/cohort.h"
#include "workload/scenario.h"
#include "workload/viewing.h"

namespace cloudmedia::vod {

/// Knobs of the cohort engine on top of the shared streaming options.
struct CohortOptions {
  StreamingOptions streaming;
  /// Arrival batching window: all of a channel's arrivals within one window
  /// become one cohort (one Poisson count draw, one arena slot).
  double window = 300.0;
  /// A cohort whose surviving mass drops below this retires (its residual
  /// folds into the departure count and the slot is recycled).
  static constexpr double min_mass = 1e-3;
};

/// Cohort-transition work: observer tallies (no RNG, no events).
struct CohortCounters {
  std::uint64_t cohorts = 0;        ///< cohorts admitted (arena slots filled)
  std::uint64_t transitions = 0;    ///< cohort steps that advanced mass
  /// Tracker::record_flows row calls: at most one per (channel, row) per
  /// window tick or provisioning harvest.
  std::uint64_t tracker_rows = 0;
  std::uint64_t download_rows = 0;  ///< download-mass cache rows computed
};

/// Mass of a cohort position currently downloading its chunk: occupancy
/// that does not yet own the chunk, under the independence approximation
/// (owned/alive as the probability that a viewer holds it).
[[nodiscard]] double download_mass(double occ, double owned, double alive);

/// The cohort/fluid simulation core: the same Deployment as StreamingSystem
/// (tracker + controller loop, SLA'd cloud, per-(channel, chunk)
/// ServicePools), but viewers are aggregated.
///
/// Statistically-identical viewers — same channel, same arrival window —
/// form one cohort: a struct-of-arrays arena slot holding the cohort's
/// occupancy mass per chunk position and its expected ownership mass per
/// chunk. One heap event per cohort *transition* advances every viewer in
/// the cohort along the ground-truth viewing chain at once
/// (workload::ViewingChain::step: the structured P in O(J), no dense
/// matrix); download demand drives the pools as fluid job counts
/// (ServicePool::set_fluid_jobs) rather than per-viewer discrete jobs.
/// Cost: O(cohorts · J) per window instead of O(viewers) heap events — a
/// 10M-peak-viewer day runs in seconds (bench/cohort_smoke.cc).
///
/// The per-cohort passes are flat row kernels over the arena and allocate
/// nothing: their row buffers are reused member scratch. A step tells the
/// tracker nothing by itself; it adds each occupied position's mass to a
/// per-(channel, row) accumulator, and flush_row_mass reports that mass M
/// as one Tracker::record_flows(M·P(j,·), M·leave_j) row call per
/// (channel, row, window), with each row read off the chain bit for bit as
/// transfer_matrix stores it: at each window tick, before the behaviour
/// cache can change P, and right before each harvest. P is fixed between
/// two flushes and the flush touches no engine state, so only the
/// tracker's P̂ rounds differently from per-step recording, and outputs
/// match it to rounding (tests/cohort_test.cc pins them). Each slot also
/// caches its download-mass row (download_mass per chunk), written only
/// where its inputs change — at admission and at the end of each
/// transition — so the 30 s capacity rebalance and quality sampling read
/// it instead of re-dividing every live cell on every tick; sampling tests
/// each pool's stall once, not once per cohort.
///
/// What is exact and what is fluid:
///  - exact: arrival counts (Poisson per channel-window), the provisioning
///    loop (same Tracker/Controller/CloudService code paths, weighted
///    tracker flows), cost accounting, pool byte accounting.
///  - fluid approximations: per-chunk flows use expected values of the
///    viewing chain instead of sampled walks; ownership within a cohort
///    uses an independence approximation (owned/alive as a probability);
///    quality is mass-based (stalled mass over total mass) instead of
///    per-viewer smoothness bookkeeping.
/// Small-N runs wanting exactness should use the discrete engine — the
/// expr runner's `auto` engine does precisely that below the population
/// threshold.
class CohortSystem final : public Deployment {
 public:
  CohortSystem(sim::Simulator& simulator, const workload::Workload& workload,
               core::VodParameters params, cloud::CloudService& cloud,
               std::unique_ptr<core::Controller> controller,
               CohortOptions options);

  // --- introspection (tests, benches) -----------------------------------
  [[nodiscard]] double current_viewer_mass() const noexcept { return total_mass_; }
  [[nodiscard]] double channel_viewer_mass(int channel) const;
  /// Largest viewer mass a bandwidth sample has seen.
  [[nodiscard]] double peak_viewer_mass() const;
  [[nodiscard]] long long viewers_admitted() const noexcept { return arrivals_count_; }
  [[nodiscard]] double departures_mass() const noexcept { return departures_mass_; }
  [[nodiscard]] std::size_t live_cohorts() const noexcept { return live_cohorts_; }
  [[nodiscard]] const CohortCounters& cohort_counters() const noexcept {
    return counters_;
  }
  /// Arena slots ever allocated, live or free; slot_view() indexes them.
  [[nodiscard]] std::size_t arena_slots() const noexcept { return live_.size(); }
  /// One arena slot read-only: its channel, the inputs of its download-mass
  /// row and the cached row itself, so tests can check the cache against
  /// them.
  struct SlotView {
    bool live = false;
    int channel = 0;
    double alive = 0.0;
    std::span<const double> occupancy, owned, download;
  };
  [[nodiscard]] SlotView slot_view(std::size_t slot) const;

 private:
  // --- Deployment hooks ---------------------------------------------------
  /// The bootstrap plan, then the arrival-window periodic, then the
  /// deployment periodics.
  void schedule_start() override;
  void harvest_population(std::vector<std::vector<double>>& occupancy,
                          std::vector<double>& mean_uplink) override;
  void rebalance_capacity() override;
  void sample_quality(double now) override;
  [[nodiscard]] double population() const override { return total_mass_; }
  [[nodiscard]] double channel_population(int channel) const override {
    return channel_viewer_mass(channel);
  }

  void window_tick(double now);
  /// Report every (channel, row) accumulated mass M to the tracker as
  /// M·P(j,·) and M·leave_j under the cached chain, and zero the
  /// accumulator.
  void flush_row_mass();
  void transition(std::size_t slot, std::uint32_t generation);
  void retire(std::size_t slot);
  [[nodiscard]] std::size_t allocate_slot();
  void refresh_behavior_cache();
  void sync_counters();

  [[nodiscard]] std::size_t cell(std::size_t slot, int chunk) const;

  double window_;  ///< CohortOptions::window

  // SoA cohort arena. A slot is live iff live_[slot]; freed slots recycle
  // through free_slots_ and bump generation_ so stale transition events
  // from a previous tenancy are ignored.
  std::vector<char> live_;
  std::vector<std::uint32_t> generation_;
  std::vector<int> channel_of_;
  std::vector<double> alive_;        ///< surviving viewer mass
  std::vector<double> uplink_rate_;  ///< mean per-viewer uplink (bytes/s)
  std::vector<double> occ_;          ///< [slot · J + j] position mass
  std::vector<double> owned_;        ///< [slot · J + j] ownership mass
  /// [slot · J + j] download_mass(occ, owned, alive) of the cells above;
  /// rewritten whenever they change, zero on free slots.
  std::vector<double> download_;
  std::vector<std::size_t> free_slots_;
  std::size_t live_cohorts_ = 0;

  // Ground-truth behaviour cache (refreshed every window tick: set_config
  // can reshape it mid-run).
  workload::ViewingChain chain_;
  std::vector<double> entry_dist_;

  std::vector<workload::CohortArrivals> arrivals_;  ///< per channel
  std::vector<double> channel_mass_;                ///< per channel
  /// [c · J + j] occupancy mass stepped from row j since the last
  /// flush_row_mass.
  std::vector<double> row_mass_;
  double total_mass_ = 0.0;

  long long arrivals_count_ = 0;
  double departures_mass_ = 0.0;
  double downloads_mass_ = 0.0;
  double late_mass_ = 0.0;
  double replays_mass_ = 0.0;

  // Reused scratch: per-chunk rows for transition, the tracker flush and
  // the per-channel rebalance pass, per-pool and per-channel sums for the
  // arena walks.
  std::vector<double> next_occ_, flows_;
  std::vector<double> fluid_, cloud_alloc_, peer_alloc_;
  std::vector<int> order_;
  std::vector<double> dl_mass_, owned_mass_;        ///< per pool
  std::vector<char> pool_stalled_;                  ///< per pool
  std::vector<double> channel_uplink_, stalled_;    ///< per channel

  CohortCounters counters_;
};

}  // namespace cloudmedia::vod
