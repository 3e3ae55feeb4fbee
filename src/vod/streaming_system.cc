#include "vod/streaming_system.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/check.h"

namespace cloudmedia::vod {

namespace {
constexpr std::uint64_t kSlotMask = 0xffffffffull;

std::uint64_t make_handle(std::uint32_t slot, std::uint32_t generation) noexcept {
  return static_cast<std::uint64_t>(slot) |
         (static_cast<std::uint64_t>(generation) << 32);
}

/// Position of peer `id` in an id-sorted slot vector (binary search over
/// the per-slot ids).
auto id_position(std::vector<std::uint32_t>& slots,
                 const std::vector<std::uint64_t>& ids, std::uint64_t id) {
  return std::ranges::lower_bound(
      slots, id, {}, [&ids](std::uint32_t slot) { return ids[slot]; });
}

std::vector<std::uint64_t> handles_of(const std::vector<std::uint32_t>& slots,
                                      const std::vector<Peer>& slab) {
  std::vector<std::uint64_t> handles;
  handles.reserve(slots.size());
  for (const std::uint32_t slot : slots) {
    handles.push_back(make_handle(slot, slab[slot].generation));
  }
  return handles;
}

/// Smooth share of `users` peers (1.0 when there are none).
double smooth_share(std::size_t smooth, std::size_t users) {
  return users == 0 ? 1.0
                    : static_cast<double>(smooth) / static_cast<double>(users);
}
}  // namespace

StreamingSystem::StreamingSystem(sim::Simulator& simulator,
                                 const workload::Workload& workload,
                                 core::VodParameters params,
                                 cloud::CloudService& cloud,
                                 std::unique_ptr<core::Controller> controller,
                                 StreamingOptions options)
    : Deployment(simulator, workload, params, cloud, std::move(controller),
                 options, [this](int c, int i) -> ServicePool::CompletionHandler {
                   return [this, c, i](const ServicePool::Completion& completion) {
                     handle_completion(c, i, completion);
                   };
                 }) {
  members_.resize(static_cast<std::size_t>(num_channels_));
  owners_.resize(pools_.size());
  position_count_.assign(pools_.size(), 0);
  words_ = owned_words(num_chunks_);
  uplink_sum_.assign(static_cast<std::size_t>(num_channels_), 0.0);
  next_user_index_.assign(static_cast<std::size_t>(num_channels_), 0);
  last_arrival_time_.assign(static_cast<std::size_t>(num_channels_), 0.0);
}

// --- peer slab -------------------------------------------------------------

std::uint32_t StreamingSystem::slot_of(const Peer& peer) const noexcept {
  return static_cast<std::uint32_t>(&peer - slab_.data());
}

std::uint64_t StreamingSystem::peer_handle(const Peer& peer) const noexcept {
  return make_handle(slot_of(peer), peer.generation);
}

std::uint64_t StreamingSystem::peer_id(const Peer& peer) const noexcept {
  return peer_id_[slot_of(peer)];
}

double StreamingSystem::peer_uplink(const Peer& peer) const noexcept {
  return peer_uplink_[slot_of(peer)];
}

int StreamingSystem::owned_count(const Peer& peer) const noexcept {
  return owned_count_[slot_of(peer)];
}

bool StreamingSystem::owns(const Peer& peer, int chunk) const {
  CM_EXPECTS(chunk >= 0 && chunk < num_chunks_);
  const auto j = static_cast<std::size_t>(chunk);
  return (owned_bits_[slot_of(peer) * words_ + j / 64] >> (j % 64) & 1) != 0;
}

double StreamingSystem::arrival_time(const Peer& peer) const noexcept {
  return arrival_time_[slot_of(peer)];
}

Peer* StreamingSystem::find_peer_mut(std::uint64_t handle) noexcept {
  const auto slot = static_cast<std::size_t>(handle & kSlotMask);
  if (slot >= slab_.size()) return nullptr;
  Peer& peer = slab_[slot];
  // Generation guard: a handle taken before the peer departed no longer
  // matches once the slot is freed (and possibly recycled) — late events
  // carrying it fall into the same miss path the old map lookup had.
  if (!peer.live || peer.generation != static_cast<std::uint32_t>(handle >> 32)) {
    return nullptr;
  }
  return &peer;
}

const Peer* StreamingSystem::find_peer(std::uint64_t handle) const noexcept {
  return const_cast<StreamingSystem*>(this)->find_peer_mut(handle);
}

std::vector<std::uint64_t> StreamingSystem::channel_peer_handles(
    int channel) const {
  CM_EXPECTS(channel >= 0 && channel < num_channels_);
  return handles_of(members_[static_cast<std::size_t>(channel)], slab_);
}

std::vector<std::uint64_t> StreamingSystem::owner_handles(int channel,
                                                          int chunk) const {
  return handles_of(owners_[pool_index(channel, chunk)], slab_);
}

void StreamingSystem::schedule_start() {
  for (int c = 0; c < num_channels_; ++c) {
    arrivals_.push_back(workload_->make_arrivals(c));
  }
  for (int c = 0; c < num_channels_; ++c) {
    last_arrival_time_[static_cast<std::size_t>(c)] = sim_->now();
    schedule_next_arrival(c);
  }
  schedule_bootstrap();
  schedule_periodics();
}

// --- user lifecycle -------------------------------------------------------

void StreamingSystem::schedule_next_arrival(int channel) {
  const auto ch = static_cast<std::size_t>(channel);
  const double t = arrivals_[ch].next_after(last_arrival_time_[ch]);
  last_arrival_time_[ch] = t;
  sim_->schedule_at(t, [this, channel, t] { handle_arrival(channel, t); });
}

void StreamingSystem::handle_arrival(int channel, double time) {
  const auto ch = static_cast<std::size_t>(channel);
  const workload::SessionScript script =
      workload_->make_session(channel, next_user_index_[ch]++);
  CM_ENSURES(!script.chunks.empty());

  const std::uint64_t id = next_peer_id_++;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();  // LIFO: the hottest slot, still in cache
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    peer_id_.push_back(0);
    peer_uplink_.push_back(0.0);
    owned_count_.push_back(0);
    last_late_.push_back(0.0);
    download_start_.push_back(0.0);
    arrival_time_.push_back(0.0);
    owned_bits_.resize(owned_bits_.size() + words_);
  }
  Peer& peer = slab_[slot];
  CM_ENSURES(!peer.live);
  peer_id_[slot] = id;
  peer_uplink_[slot] = script.uplink;
  owned_count_[slot] = 0;
  last_late_[slot] = -1e300;
  download_start_[slot] = 0.0;
  arrival_time_[slot] = time;
  const auto row =
      owned_bits_.begin() + static_cast<std::ptrdiff_t>(slot * words_);
  std::fill(row, row + static_cast<std::ptrdiff_t>(words_), std::uint64_t{0});
  peer.channel = channel;
  // assign() (not =) so a recycled slot reuses its walk capacity.
  peer.walk.assign(script.chunks.begin(), script.chunks.end());
  peer.position = 0;
  peer.chunk = peer.walk.front();
  peer.downloading = false;
  peer.live = true;  // generation was bumped when the slot was freed
  members_[ch].push_back(slot);  // id is the largest yet: stays sorted
  ++live_peers_;
  const int entry = peer.chunk;

  uplink_sum_[ch] += script.uplink;
  ++position_count_[pool_index(channel, entry)];
  tracker_.record_arrival(channel, entry);
  ++metrics_.counters.arrivals;

  begin_chunk(peer);

  schedule_next_arrival(channel);
}

void StreamingSystem::begin_chunk(Peer& peer) {
  if (owns(peer, peer.chunk)) {
    // Replay from the local buffer: instant retrieval, watch for T0.
    ++metrics_.counters.buffered_replays;
    const std::uint64_t handle = peer_handle(peer);
    sim_->schedule_in(params_.chunk_duration,
                      [this, handle] { handle_dwell_end(handle); }, &peer);
    return;
  }
  peer.downloading = true;
  download_start_[slot_of(peer)] = sim_->now();
  pool(peer.channel, peer.chunk)
      .add_job(params_.chunk_bytes(), peer_handle(peer));
}

void StreamingSystem::handle_completion(int channel, int chunk,
                                        const ServicePool::Completion& completion) {
  Peer* found = find_peer_mut(completion.tag);
  // Peers depart only between downloads, so the guard never misses here;
  // it stays as the slab's safety net against a stale handle.
  if (found == nullptr) return;
  Peer& peer = *found;
  CM_ENSURES(peer.channel == channel);
  CM_ENSURES(peer.walk[peer.position] == chunk);

  peer.downloading = false;
  ++metrics_.counters.chunk_downloads;
  const std::uint32_t slot = slot_of(peer);
  const bool late = completion.sojourn > params_.chunk_duration + 1e-9;
  if (late) {
    last_late_[slot] = sim_->now();
    ++metrics_.counters.late_downloads;
  }

  const auto j = static_cast<std::size_t>(chunk);
  std::uint64_t& word = owned_bits_[slot * words_ + j / 64];
  const std::uint64_t bit = std::uint64_t{1} << (j % 64);
  if ((word & bit) == 0) {
    word |= bit;
    ++owned_count_[slot];
    std::vector<std::uint32_t>& owners = owners_[pool_index(channel, chunk)];
    owners.insert(id_position(owners, peer_id_, peer_id_[slot]), slot);
  }

  // The user watches the chunk for T0; a late download stalls playback, so
  // the dwell in this position is max(T0, sojourn) from download start.
  const double dwell_end =
      std::max(completion.enqueue_time + params_.chunk_duration, sim_->now());
  const std::uint64_t handle = completion.tag;
  sim_->schedule_at(dwell_end, [this, handle] { handle_dwell_end(handle); },
                    &peer);
}

void StreamingSystem::handle_dwell_end(std::uint64_t handle) {
  Peer* peer = find_peer_mut(handle);
  if (peer == nullptr) return;
  advance_walk(*peer);
}

void StreamingSystem::advance_walk(Peer& peer) {
  const int from = peer.chunk;
  --position_count_[pool_index(peer.channel, from)];

  if (peer.position + 1 < peer.walk.size()) {
    ++peer.position;
    const int to = peer.walk[peer.position];
    peer.chunk = to;
    ++position_count_[pool_index(peer.channel, to)];
    tracker_.record_transition(peer.channel, from, to);
    begin_chunk(peer);
  } else {
    tracker_.record_transition(peer.channel, from, std::nullopt);
    depart(peer);
  }
}

void StreamingSystem::depart(Peer& peer) {
  // advance_walk is the only caller, after a finished download or a
  // buffered replay: no departing peer holds a pool job.
  CM_ENSURES(!peer.downloading);
  const auto ch = static_cast<std::size_t>(peer.channel);
  // Erase from the id-sorted member and owner vectors (binary search on
  // the monotone peer id; the memmove is cheap next to a per-tick sort).
  const std::uint32_t slot = slot_of(peer);
  const std::uint64_t id = peer_id_[slot];
  const auto erase_slot = [this, id](std::vector<std::uint32_t>& slots) {
    const auto it = id_position(slots, peer_id_, id);
    CM_ENSURES(it != slots.end() && peer_id_[*it] == id);
    slots.erase(it);
  };
  // Set bits in ascending chunk order, the order the owner lists are
  // erased from.
  const std::size_t base = pool_index(peer.channel, 0);
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::uint64_t bits = owned_bits_[slot * words_ + w]; bits != 0;
         bits &= bits - 1) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
      erase_slot(owners_[base + w * 64 + bit]);
    }
  }
  uplink_sum_[ch] -= peer_uplink_[slot];
  erase_slot(members_[ch]);

  ++metrics_.counters.departures;

  // Free the slot: bump the generation so outstanding handles go stale;
  // walk keeps its capacity for the next occupant.
  peer.live = false;
  ++peer.generation;
  free_slots_.push_back(slot);
  --live_peers_;
}

double StreamingSystem::uplink_sum(int channel) const {
  CM_EXPECTS(channel >= 0 && channel < num_channels_);
  return uplink_sum_[static_cast<std::size_t>(channel)];
}

// --- Deployment hooks -----------------------------------------------------

void StreamingSystem::harvest_population(
    std::vector<std::vector<double>>& occupancy, std::vector<double>& mean_uplink) {
  for (int c = 0; c < num_channels_; ++c) {
    const auto ch = static_cast<std::size_t>(c);
    for (int i = 0; i < num_chunks_; ++i) {
      occupancy[ch][static_cast<std::size_t>(i)] =
          static_cast<double>(position_count_[pool_index(c, i)]);
    }
    mean_uplink[ch] = members_[ch].empty()
                          ? workload_->uplink_distribution().mean()
                          : uplink_sum_[ch] / static_cast<double>(members_[ch].size());
  }
}

void StreamingSystem::rebalance_capacity() {
  // Two re-splits per channel, mirroring the real schedulers:
  //  - Cloud: split_cloud_share over the chunks' active requests.
  //  - Peers (P2P mode): rarest-first allocation of owners' uplinks to
  //    active demand (Sec. IV-C), residual split as standby over owned
  //    chunks. Both passes read the id-sorted owner lists, so every float
  //    sum accumulates in ascending peer-id order.
  const double r = params_.streaming_rate;
  const auto chunks = static_cast<std::size_t>(num_chunks_);
  remaining_.resize(slab_.size());
  standby_.resize(slab_.size());
  cloud_alloc_.resize(chunks);
  order_.resize(chunks);
  ++rebalance_.ticks;

  for (int c = 0; c < num_channels_; ++c) {
    const auto ch = static_cast<std::size_t>(c);
    const std::size_t base = pool_index(c, 0);

    // --- cloud share: follow current requests --------------------------
    for (std::size_t i = 0; i < chunks; ++i) {
      cloud_alloc_[i] = static_cast<double>(pools_[base + i]->active_jobs());
    }
    split_cloud_share(c, cloud_alloc_, cloud_alloc_);

    // --- peer share: rarest-first waterfall (P2P only) ------------------
    peer_alloc_.assign(chunks, 0.0);
    const std::vector<std::uint32_t>& members = members_[ch];
    if (options_.mode == core::StreamingMode::kP2p && !members.empty()) {
      rebalance_.member_cells += members.size() * chunks;
      for (const std::uint32_t slot : members) {
        remaining_[slot] = peer_uplink_[slot];
      }

      // Chunks by rareness (ascending owner count, ties by chunk index).
      std::iota(order_.begin(), order_.end(), std::size_t{0});
      std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
        const std::size_t na = owners_[base + a].size();
        const std::size_t nb = owners_[base + b].size();
        return na != nb ? na < nb : a < b;
      });

      for (const std::size_t ck : order_) {
        const std::vector<std::uint32_t>& owners = owners_[base + ck];
        const double demand = static_cast<double>(pools_[base + ck]->active_jobs()) * r;
        if (demand <= 0.0 || owners.empty()) continue;
        rebalance_.visits += owners.size();
        double available = 0.0;
        for (const std::uint32_t slot : owners) available += remaining_[slot];
        if (available <= 0.0) continue;
        const double supply = std::min(demand, available);
        const double keep = 1.0 - supply / available;
        for (const std::uint32_t slot : owners) remaining_[slot] *= keep;
        peer_alloc_[ck] = supply;
      }

      // Standby: split each peer's residual upload evenly over its chunks,
      // added chunk-major in ascending peer-id order per chunk. A share is
      // +0.0 or positive and every accumulator starts at +0.0 or a
      // positive supply, so adding a zero share is exact: no branch.
      for (const std::uint32_t slot : members) {
        const int owned = owned_count_[slot];
        standby_[slot] = remaining_[slot] > 0.0 && owned > 0
                             ? remaining_[slot] / static_cast<double>(owned)
                             : 0.0;
      }
      for (std::size_t i = 0; i < chunks; ++i) {
        const std::vector<std::uint32_t>& owners = owners_[base + i];
        rebalance_.visits += owners.size();
        double alloc = peer_alloc_[i];
        for (const std::uint32_t slot : owners) alloc += standby_[slot];
        peer_alloc_[i] = alloc;
      }
    }

    for (std::size_t i = 0; i < chunks; ++i) {
      pools_[base + i]->set_capacity(peer_alloc_[i], cloud_alloc_[i]);
    }
  }
}

// --- metrics ---------------------------------------------------------------

bool StreamingSystem::peer_is_smooth(std::uint32_t slot) const {
  const double now = sim_->now();
  if (last_late_[slot] > now - options_.quality_window) return false;
  // An in-flight download already past its deadline is a stall in progress.
  if (slab_[slot].downloading &&
      now - download_start_[slot] > params_.chunk_duration) {
    return false;
  }
  return true;
}

std::size_t StreamingSystem::smooth_members(std::size_t channel) const {
  std::size_t smooth = 0;
  for (const std::uint32_t slot : members_[channel]) {
    if (peer_is_smooth(slot)) ++smooth;
  }
  return smooth;
}

double StreamingSystem::system_quality_now() const {
  std::size_t smooth = 0;
  for (std::size_t ch = 0; ch < members_.size(); ++ch) {
    smooth += smooth_members(ch);
  }
  return smooth_share(smooth, live_peers_);
}

double StreamingSystem::channel_quality_now(int channel) const {
  CM_EXPECTS(channel >= 0 && channel < num_channels_);
  const auto ch = static_cast<std::size_t>(channel);
  return smooth_share(smooth_members(ch), members_[ch].size());
}

void StreamingSystem::sample_quality(double now) {
  // One smoothness test per peer: every live peer is a member of exactly
  // one channel, so the channel counts sum to the system's exactly.
  std::size_t smooth = 0;
  for (std::size_t ch = 0; ch < members_.size(); ++ch) {
    const std::size_t channel_smooth = smooth_members(ch);
    smooth += channel_smooth;
    metrics_.channels[ch].quality.add(
        now, smooth_share(channel_smooth, members_[ch].size()));
  }
  metrics_.quality.add(now, smooth_share(smooth, live_peers_));
}

std::size_t StreamingSystem::channel_users(int channel) const {
  CM_EXPECTS(channel >= 0 && channel < num_channels_);
  return members_[static_cast<std::size_t>(channel)].size();
}

int StreamingSystem::owner_count(int channel, int chunk) const {
  return static_cast<int>(owners_[pool_index(channel, chunk)].size());
}

int StreamingSystem::position_count(int channel, int chunk) const {
  return position_count_[pool_index(channel, chunk)];
}

}  // namespace cloudmedia::vod
