#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/cloud_service.h"
#include "core/controller.h"
#include "sim/simulator.h"
#include "vod/deployment.h"
#include "vod/service_pool.h"
#include "workload/scenario.h"

namespace cloudmedia::vod {

/// One peer (VoD user): the hot record every peer event reads. Owned
/// chunks stay buffered until departure (Sec. III-B: the playback buffer
/// caches any one video entirely), in StreamingSystem's ownership bitmap.
///
/// Peers live in a slab (see StreamingSystem): the record is recycled
/// across sessions, and `generation`/`live` are slab bookkeeping. It is
/// one cache line and holds only what the arrival, completion, dwell-end
/// and departure handlers read; the peer's id, uplink, owned-chunk count,
/// ownership bits and its quality-sampling times are per-slot state of the
/// system, not fields here. `walk` keeps its capacity across reuse, so
/// steady-state arrivals allocate nothing.
struct alignas(64) Peer {
  std::vector<int> walk;        ///< predetermined chunk walk
  std::size_t position = 0;     ///< index into walk
  int channel = 0;
  int chunk = 0;                ///< walk[position], cached
  std::uint32_t generation = 0; ///< bumped on free; stale handles miss
  bool live = false;
  bool downloading = false;
};
static_assert(sizeof(Peer) == 64, "Peer is one cache line");

/// Rarest-first rebalance work: observer tallies (no RNG, no events).
struct RebalanceCounters {
  std::uint64_t ticks = 0;         ///< rebalance passes
  std::uint64_t visits = 0;        ///< owner-list entries read
  std::uint64_t member_cells = 0;  ///< Σ P2P members × J a rebuild would scan
};

/// The discrete engine (Fig. 3 at per-viewer resolution): every viewer is a
/// Peer with a sampled chunk walk and every chunk retrieval a discrete
/// processor-sharing job in its pool, inside the shared Deployment (tracker
/// + controller loop, SLA'd cloud). Deterministic for a given Workload seed.
///
/// Peer storage is a generation-guarded slab (the same pattern as
/// CohortSystem's SoA arena): peers occupy recycled slots in one
/// contiguous vector, each channel (and each chunk pool) keeps a dense
/// vector of member (owner) slots sorted by peer id, and every scheduled
/// event or pool job tags the peer by handle = slot | (generation << 32).
/// A handle from a departed session fails the generation check and the
/// event is dropped — the same miss semantics the old unordered_map gave,
/// without any hashing on the arrival/completion/dwell hot path. Public
/// peer ids remain monotone and are what every order-sensitive path
/// (the rarest-first rebalance) sorts by, so iteration order — and
/// therefore every float summation — is explicit, not hash-accidental.
///
/// Hot record and cold arrays: a Peer is one 64-byte line holding what
/// the per-event handlers read, its current chunk cached beside the walk
/// so no event chases the walk's heap buffer for it. Everything else
/// lives in dense slot-indexed arrays beside the slab: the peer id (every
/// owner- and member-list binary search), uplink (the rebalance's init),
/// owned-chunk count (its standby split), the last late completion and
/// download start (read only by quality sampling) and the arrival time
/// (tests). Ownership is one dense bitmap, `W = ceil(J / 64)` words per
/// slot, so a completion tests one word and a departure visits its set
/// bits in ascending chunk order. A search probe or a rebalance read
/// walks a dense array instead of gathering a line of the Peer slab per
/// peer. The standby pass adds every owner's share without
/// testing it for zero: shares are +0.0 or positive, and each pool's
/// accumulator starts at +0.0 or at a positive waterfall supply, so
/// adding +0.0 leaves it bit-identical. The test
/// OwnerListsMatchBitmapRebuildUnderChurn checks this against a bitmap
/// rebuild that skips zero shares.
class StreamingSystem final : public Deployment {
 public:
  StreamingSystem(sim::Simulator& simulator, const workload::Workload& workload,
                  core::VodParameters params, cloud::CloudService& cloud,
                  std::unique_ptr<core::Controller> controller,
                  StreamingOptions options);

  // --- introspection (tests, benches) -----------------------------------
  [[nodiscard]] std::size_t channel_users(int channel) const;
  [[nodiscard]] int owner_count(int channel, int chunk) const;
  [[nodiscard]] int position_count(int channel, int chunk) const;
  /// Instantaneous smooth-playback fraction (1.0 when no users).
  [[nodiscard]] double system_quality_now() const;
  [[nodiscard]] double channel_quality_now(int channel) const;

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
  /// `peer`'s per-slot keys: monotone id, uplink (bytes/s contributed in
  /// P2P mode) and the number of chunks it has buffered.
  [[nodiscard]] std::uint64_t peer_id(const Peer& peer) const noexcept;
  [[nodiscard]] double peer_uplink(const Peer& peer) const noexcept;
  [[nodiscard]] int owned_count(const Peer& peer) const noexcept;
  /// Whether `peer` has buffered `chunk` (its bit in the ownership bitmap).
  [[nodiscard]] bool owns(const Peer& peer, int chunk) const;
  /// Simulated time `peer` arrived.
  [[nodiscard]] double arrival_time(const Peer& peer) const noexcept;
  /// Words of ownership bitmap per peer slot for `chunks` chunks.
  [[nodiscard]] static constexpr std::size_t owned_words(int chunks) noexcept {
    return (static_cast<std::size_t>(chunks) + 63) / 64;
  }
  /// Member handles of `channel`, sorted by monotone peer id — the
  /// deterministic order the standby-share pass uses.
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

 private:
  // --- Deployment hooks ---------------------------------------------------
  /// Arrival chains, then the bootstrap plan, then the periodics.
  void schedule_start() override;
  void harvest_population(std::vector<std::vector<double>>& occupancy,
                          std::vector<double>& mean_uplink) override;
  void rebalance_capacity() override;
  void sample_quality(double now) override;
  [[nodiscard]] double population() const override {
    return static_cast<double>(live_peers_);
  }
  [[nodiscard]] double channel_population(int channel) const override {
    return static_cast<double>(channel_users(channel));
  }

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
  [[nodiscard]] bool peer_is_smooth(std::uint32_t slot) const;
  /// Smooth-playback members of `channel`.
  [[nodiscard]] std::size_t smooth_members(std::size_t channel) const;

  // Peer slab: slot-indexed, LIFO free list, generation-guarded handles
  // (see the class comment). members_ (per channel) and owners_ (per
  // pool) hold live slots sorted by ascending peer id: arrivals append to
  // members_ (ids are monotone), a chunk's first completion binary-search-
  // inserts into owners_ and departures binary-search-erase from both, so
  // the rebalance order is free — no per-tick sort or rebuild.
  std::vector<Peer> slab_;
  std::vector<std::uint64_t> peer_id_;   ///< per slot (the lists' sort key)
  std::vector<double> peer_uplink_;      ///< per slot
  std::vector<int> owned_count_;         ///< per slot: set bits in its row
  std::vector<double> last_late_;        ///< per slot: last late completion
  std::vector<double> download_start_;   ///< per slot
  std::vector<double> arrival_time_;     ///< per slot
  /// Ownership bitmap: slot s owns chunk j iff bit j % 64 of word
  /// s * words_ + j / 64 is set.
  std::vector<std::uint64_t> owned_bits_;
  std::size_t words_ = 0;
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
};

}  // namespace cloudmedia::vod
