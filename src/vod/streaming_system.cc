#include "vod/streaming_system.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"
#include "util/log.h"
#include "util/units.h"

namespace cloudmedia::vod {

namespace {
constexpr std::uint64_t kSlotMask = 0xffffffffull;

std::uint64_t make_handle(std::uint32_t slot, std::uint32_t generation) noexcept {
  return static_cast<std::uint64_t>(slot) |
         (static_cast<std::uint64_t>(generation) << 32);
}

/// Position of peer `id` in an id-sorted slot vector (binary search).
auto id_position(std::vector<std::uint32_t>& slots, const std::vector<Peer>& slab,
                 std::uint64_t id) {
  return std::ranges::lower_bound(slots, id, {},
                                  [&slab](std::uint32_t slot) { return slab[slot].id; });
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
}  // namespace

StreamingSystem::StreamingSystem(sim::Simulator& simulator,
                                 const workload::Workload& workload,
                                 core::VodParameters params,
                                 cloud::CloudService& cloud,
                                 std::unique_ptr<core::Controller> controller,
                                 StreamingOptions options)
    : sim_(&simulator),
      workload_(&workload),
      params_(params),
      cloud_(&cloud),
      controller_(std::move(controller)),
      options_(options),
      num_channels_(workload.num_channels()),
      num_chunks_(params.chunks_per_video),
      tracker_(workload.num_channels(), params.chunks_per_video),
      entry_point_(options.entry) {
  params_.validate();
  CM_EXPECTS(controller_ != nullptr);
  CM_EXPECTS(workload.config().chunks_per_video == params.chunks_per_video);
  CM_EXPECTS(options_.provisioning_interval > 0.0);
  CM_EXPECTS(options_.rebalance_interval > 0.0);
  CM_EXPECTS(options_.sample_interval > 0.0);
  CM_EXPECTS(options_.quality_interval > 0.0 && options_.quality_window > 0.0);

  const std::size_t total =
      static_cast<std::size_t>(num_channels_) * static_cast<std::size_t>(num_chunks_);
  pools_.reserve(total);
  for (int c = 0; c < num_channels_; ++c) {
    for (int i = 0; i < num_chunks_; ++i) {
      pools_.push_back(std::make_unique<ServicePool>(
          simulator, params_.vm_bandwidth,
          [this, c, i](const ServicePool::Completion& completion) {
            handle_completion(c, i, completion);
          }));
    }
  }
  served_cloud_snapshot_.assign(total, 0.0);
  members_.resize(static_cast<std::size_t>(num_channels_));
  owners_.resize(total);
  position_count_.assign(total, 0);
  uplink_sum_.assign(static_cast<std::size_t>(num_channels_), 0.0);
  next_user_index_.assign(static_cast<std::size_t>(num_channels_), 0);
  last_arrival_time_.assign(static_cast<std::size_t>(num_channels_), 0.0);
  metrics_.channels.resize(static_cast<std::size_t>(num_channels_));

  cloud_->vm_scheduler().set_capacity_listener([this] { rebalance_capacity(); });
}

std::size_t StreamingSystem::pool_index(int channel, int chunk) const {
  CM_EXPECTS(channel >= 0 && channel < num_channels_);
  CM_EXPECTS(chunk >= 0 && chunk < num_chunks_);
  return static_cast<std::size_t>(channel) * static_cast<std::size_t>(num_chunks_) +
         static_cast<std::size_t>(chunk);
}

ServicePool& StreamingSystem::pool(int channel, int chunk) {
  return *pools_[pool_index(channel, chunk)];
}

// --- peer slab -------------------------------------------------------------

std::uint32_t StreamingSystem::slot_of(const Peer& peer) const noexcept {
  return static_cast<std::uint32_t>(&peer - slab_.data());
}

std::uint64_t StreamingSystem::peer_handle(const Peer& peer) const noexcept {
  return make_handle(slot_of(peer), peer.generation);
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

void StreamingSystem::start() {
  CM_EXPECTS(!started_);
  started_ = true;

  for (int c = 0; c < num_channels_; ++c) {
    arrivals_.push_back(workload_->make_arrivals(c));
  }
  for (int c = 0; c < num_channels_; ++c) {
    last_arrival_time_[static_cast<std::size_t>(c)] = sim_->now();
    schedule_next_arrival(c);
  }

  const double t0 = sim_->now();
  if (options_.bootstrap_plan) {
    sim_->schedule_at(t0, [this] {
      const core::ProvisioningPlan plan = controller_->plan(bootstrap_report());
      apply_plan(plan);
      record_plan_series(sim_->now());
    });
  }
  sim_->schedule_periodic(t0 + options_.provisioning_interval,
                          options_.provisioning_interval,
                          [this](double t) { run_provisioning(t); });
  sim_->schedule_periodic(t0 + options_.rebalance_interval,
                          options_.rebalance_interval,
                          [this](double) { rebalance_capacity(); });
  sim_->schedule_periodic(t0 + options_.sample_interval, options_.sample_interval,
                          [this](double t) { sample_bandwidth(t); });
  sim_->schedule_periodic(t0 + options_.quality_interval,
                          options_.quality_interval,
                          [this](double t) { sample_quality(t); });
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
  }
  Peer& peer = slab_[slot];
  CM_ENSURES(!peer.live);
  peer.id = id;
  peer.channel = channel;
  peer.uplink = script.uplink;
  peer.arrival_time = time;
  // assign() (not =) so a recycled slot reuses its walk/owned capacity.
  peer.walk.assign(script.chunks.begin(), script.chunks.end());
  peer.position = 0;
  peer.owned.assign(static_cast<std::size_t>(num_chunks_), false);
  peer.owned_count = 0;
  peer.last_late = -1e300;
  peer.downloading = false;
  peer.download_start = 0.0;
  peer.job_id = 0;
  peer.live = true;  // generation was bumped when the slot was freed
  members_[ch].push_back(slot);  // id is the largest yet: stays sorted
  ++live_peers_;
  const int entry = peer.walk.front();

  uplink_sum_[ch] += peer.uplink;
  ++position_count_[pool_index(channel, entry)];
  tracker_.record_arrival(channel, entry);
  ++metrics_.counters.arrivals;

  begin_chunk(peer);

  schedule_next_arrival(channel);
}

void StreamingSystem::begin_chunk(Peer& peer) {
  const int chunk = peer.walk[peer.position];
  if (peer.owned[static_cast<std::size_t>(chunk)]) {
    // Replay from the local buffer: instant retrieval, watch for T0.
    ++metrics_.counters.buffered_replays;
    const std::uint64_t handle = peer_handle(peer);
    sim_->schedule_in(params_.chunk_duration,
                      [this, handle] { handle_dwell_end(handle); });
    return;
  }
  // Sec. V-B admission path: with insufficient peer supply (no overlay
  // owner of the chunk; always, in client–server mode) the tracker refers
  // the peer to the cloud with <entry address, ports, ticket>, and the
  // entry point verifies the ticket before forwarding to a VM. Referral
  // and redemption happen within one event (the round trip is sub-second
  // against 5-minute chunks) — admission accounting, not a bandwidth
  // effect.
  const bool needs_cloud =
      options_.mode == core::StreamingMode::kClientServer ||
      owner_count(peer.channel, chunk) == 0;
  if (needs_cloud) {
    const cloud::CloudReferral referral = entry_point_.issue(sim_->now());
    const cloud::TicketStatus verdict =
        entry_point_.redeem(referral.ticket, sim_->now());
    CM_ENSURES(verdict == cloud::TicketStatus::kValid);
  }
  peer.downloading = true;
  peer.download_start = sim_->now();
  peer.job_id =
      pool(peer.channel, chunk).add_job(params_.chunk_bytes(), peer_handle(peer));
}

void StreamingSystem::handle_completion(int channel, int chunk,
                                        const ServicePool::Completion& completion) {
  Peer* found = find_peer_mut(completion.tag);
  if (found == nullptr) return;  // departed with an aborted job
  Peer& peer = *found;
  CM_ENSURES(peer.channel == channel);
  CM_ENSURES(peer.walk[peer.position] == chunk);

  peer.downloading = false;
  peer.job_id = 0;
  ++metrics_.counters.chunk_downloads;
  const bool late = completion.sojourn > params_.chunk_duration + 1e-9;
  if (late) {
    peer.last_late = sim_->now();
    ++metrics_.counters.late_downloads;
  }

  if (!peer.owned[static_cast<std::size_t>(chunk)]) {
    peer.owned[static_cast<std::size_t>(chunk)] = true;
    ++peer.owned_count;
    std::vector<std::uint32_t>& owners = owners_[pool_index(channel, chunk)];
    owners.insert(id_position(owners, slab_, peer.id), slot_of(peer));
  }

  // The user watches the chunk for T0; a late download stalls playback, so
  // the dwell in this position is max(T0, sojourn) from download start.
  const double dwell_end =
      std::max(completion.enqueue_time + params_.chunk_duration, sim_->now());
  const std::uint64_t handle = completion.tag;
  sim_->schedule_at(dwell_end, [this, handle] { handle_dwell_end(handle); });
}

void StreamingSystem::handle_dwell_end(std::uint64_t handle) {
  Peer* peer = find_peer_mut(handle);
  if (peer == nullptr) return;
  advance_walk(*peer);
}

void StreamingSystem::advance_walk(Peer& peer) {
  const int from = peer.walk[peer.position];
  --position_count_[pool_index(peer.channel, from)];

  if (peer.position + 1 < peer.walk.size()) {
    ++peer.position;
    const int to = peer.walk[peer.position];
    ++position_count_[pool_index(peer.channel, to)];
    tracker_.record_transition(peer.channel, from, to);
    begin_chunk(peer);
  } else {
    tracker_.record_transition(peer.channel, from, std::nullopt);
    depart(peer);
  }
}

void StreamingSystem::depart(Peer& peer) {
  const auto ch = static_cast<std::size_t>(peer.channel);
  if (peer.downloading) {
    // Abort the in-flight retrieval: without this the pool keeps a ghost
    // job that holds a per-job capacity share forever and inflates
    // cloud_bytes_served (its completion would fire into a missing peer).
    pool(peer.channel, peer.walk[peer.position]).remove_job(peer.job_id);
    peer.downloading = false;
  }
  // Erase from the id-sorted member and owner vectors (binary search on
  // the monotone peer id; the memmove is cheap next to a per-tick sort).
  const auto erase_slot = [this, &peer](std::vector<std::uint32_t>& slots) {
    const auto it = id_position(slots, slab_, peer.id);
    CM_ENSURES(it != slots.end() && slab_[*it].id == peer.id);
    slots.erase(it);
  };
  for (int i = 0; i < num_chunks_; ++i) {
    if (peer.owned[static_cast<std::size_t>(i)]) {
      erase_slot(owners_[pool_index(peer.channel, i)]);
    }
  }
  uplink_sum_[ch] -= peer.uplink;
  erase_slot(members_[ch]);

  ++metrics_.counters.departures;

  // Free the slot: bump the generation so outstanding handles (pending
  // dwell events, aborted pool jobs) go stale; walk/owned keep their
  // capacity for the next occupant.
  peer.live = false;
  ++peer.generation;
  free_slots_.push_back(slot_of(peer));
  --live_peers_;
}

std::size_t StreamingSystem::evict_channel(int channel) {
  CM_EXPECTS(channel >= 0 && channel < num_channels_);
  const auto ch = static_cast<std::size_t>(channel);
  // Snapshot in ascending-id order: depart() mutates members_ underneath.
  const std::vector<std::uint32_t> slots = members_[ch];
  for (const std::uint32_t slot : slots) {
    Peer& peer = slab_[slot];
    const int current = peer.walk[peer.position];
    --position_count_[pool_index(channel, current)];
    tracker_.record_transition(channel, current, std::nullopt);
    depart(peer);
  }
  // Pending dwell/completion events for evicted peers carry stale
  // generations and are ignored when they fire.
  return slots.size();
}

double StreamingSystem::uplink_sum(int channel) const {
  CM_EXPECTS(channel >= 0 && channel < num_channels_);
  return uplink_sum_[static_cast<std::size_t>(channel)];
}

// --- provisioning loop ------------------------------------------------------

core::TrackerReport StreamingSystem::bootstrap_report() const {
  // Window-labelling: see the declaration — interval_start is the start of
  // the described window, here the upcoming [now, now+T) forecast.
  core::TrackerReport report;
  report.interval_start = sim_->now();
  report.interval_length = options_.provisioning_interval;
  report.channels.resize(static_cast<std::size_t>(num_channels_));
  const workload::ViewingBehavior& behavior = workload_->config().behavior;
  const util::Matrix transfer = behavior.transfer_matrix(num_chunks_);
  const std::vector<double> entry = behavior.entry_distribution(num_chunks_);
  const double uplink_mean = workload_->uplink_distribution().mean();
  for (int c = 0; c < num_channels_; ++c) {
    core::ChannelObservation& obs = report.channels[static_cast<std::size_t>(c)];
    obs.arrival_rate = workload_->channel_rate(c, sim_->now());
    obs.transfer = transfer;
    obs.entry = entry;
    obs.occupancy.assign(static_cast<std::size_t>(num_chunks_), 0.0);
    obs.served_cloud_bandwidth.assign(static_cast<std::size_t>(num_chunks_), 0.0);
    obs.mean_peer_uplink = uplink_mean;
  }
  return report;
}

void StreamingSystem::run_provisioning(double now) {
  const double interval = options_.provisioning_interval;

  const auto channels = static_cast<std::size_t>(num_channels_);
  std::vector<std::vector<double>> occupancy(
      channels, std::vector<double>(static_cast<std::size_t>(num_chunks_), 0.0));
  std::vector<std::vector<double>> served = occupancy;
  std::vector<double> mean_uplink(channels, 0.0);

  for (int c = 0; c < num_channels_; ++c) {
    const auto ch = static_cast<std::size_t>(c);
    for (int i = 0; i < num_chunks_; ++i) {
      const std::size_t key = pool_index(c, i);
      occupancy[ch][static_cast<std::size_t>(i)] =
          static_cast<double>(position_count_[key]);
      ServicePool& p = *pools_[key];
      p.sync();
      served[ch][static_cast<std::size_t>(i)] =
          (p.cloud_bytes_served() - served_cloud_snapshot_[key]) / interval;
      served_cloud_snapshot_[key] = p.cloud_bytes_served();
    }
    mean_uplink[ch] = members_[ch].empty()
                          ? workload_->uplink_distribution().mean()
                          : uplink_sum_[ch] / static_cast<double>(members_[ch].size());
  }

  const core::TrackerReport report =
      tracker_.harvest(now - interval, interval, occupancy, mean_uplink, served);
  const core::ProvisioningPlan plan = controller_->plan(report);
  apply_plan(plan);
  record_plan_series(now);
}

void StreamingSystem::apply_plan(const core::ProvisioningPlan& plan) {
  if (!cloud_->submit_plan(plan, num_channels_, num_chunks_)) {
    ++metrics_.counters.rejected_plans;
    CM_LOG(kWarn) << "cloud rejected provisioning plan at t=" << sim_->now();
    return;
  }
  last_plan_ = std::make_shared<core::ProvisioningPlan>(plan);
  // Pool capacities refresh through the VM scheduler's listener.

  // Refresh the entry point's port-forwarding table onto the provisioned
  // instances (Sec. V-B: verified requests are "forwarded to the VMs in
  // the cloud ... using the port-forwarding technique").
  const std::vector<int>& ports = entry_point_.config().ports;
  const std::size_t vm_count = plan.instances.instances.size();
  for (std::size_t k = 0; k < ports.size(); ++k) {
    if (vm_count == 0) {
      entry_point_.unmap_port(ports[k]);
    } else {
      entry_point_.map_port(ports[k], static_cast<int>(k % vm_count));
    }
  }
}

void StreamingSystem::record_plan_series(double now) {
  if (!last_plan_) return;
  const core::ProvisioningPlan& plan = *last_plan_;
  metrics_.vm_cost_rate.add(now, cloud_->vm_cost_rate());
  metrics_.storage_cost_rate.add(now, cloud_->storage_cost_rate());
  for (int c = 0; c < num_channels_; ++c) {
    const auto ch = static_cast<std::size_t>(c);
    ChannelSeries& series = metrics_.channels[ch];
    double provisioned = 0.0;
    for (double b : plan.chunk_cloud_bandwidth[ch]) provisioned += b;
    series.provisioned_mbps.add(now, util::to_mbps(provisioned));
    series.storage_utility.add(
        now, core::channel_storage_utility(plan.storage_problem, plan.storage, c));
    series.vm_utility.add(now,
                          core::channel_vm_utility(plan.vm_problem, plan.vm, c));
  }
}

void StreamingSystem::rebalance_capacity() {
  // Two re-splits per channel, mirroring the real schedulers:
  //  - Cloud: a VM serves whichever of its (consecutive) chunks is being
  //    requested (Sec. V-A2), so the channel's planned cloud bandwidth is
  //    re-split across chunks in proportion to active requests, with a
  //    small standby weight so fresh requests are never starved until the
  //    next tick.
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
    double channel_cloud = 0.0;
    double weight_total = 0.0;
    for (std::size_t i = 0; i < chunks; ++i) {
      channel_cloud += cloud_->chunk_capacity(c, static_cast<int>(i));
      cloud_alloc_[i] = static_cast<double>(pools_[base + i]->active_jobs()) +
                        options_.standby_weight;  // the chunk's weight
      weight_total += cloud_alloc_[i];
    }
    const bool split = channel_cloud > 0.0 && weight_total > 0.0;
    for (double& w : cloud_alloc_) w = split ? channel_cloud * w / weight_total : 0.0;

    // --- peer share: rarest-first waterfall (P2P only) ------------------
    peer_alloc_.assign(chunks, 0.0);
    const std::vector<std::uint32_t>& members = members_[ch];
    if (options_.mode == core::StreamingMode::kP2p && !members.empty()) {
      rebalance_.member_cells += members.size() * chunks;
      for (const std::uint32_t slot : members) remaining_[slot] = slab_[slot].uplink;

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
      // added chunk-major in ascending peer-id order per chunk.
      for (const std::uint32_t slot : members) {
        const int owned = slab_[slot].owned_count;
        standby_[slot] = remaining_[slot] > 0.0 && owned > 0
                             ? remaining_[slot] / static_cast<double>(owned)
                             : 0.0;
      }
      for (std::size_t i = 0; i < chunks; ++i) {
        const std::vector<std::uint32_t>& owners = owners_[base + i];
        rebalance_.visits += owners.size();
        for (const std::uint32_t slot : owners) {
          if (standby_[slot] != 0.0) peer_alloc_[i] += standby_[slot];
        }
      }
    }

    for (std::size_t i = 0; i < chunks; ++i) {
      pools_[base + i]->set_capacity(peer_alloc_[i], cloud_alloc_[i]);
    }
  }
}

// --- metrics ---------------------------------------------------------------

double StreamingSystem::cloud_rate_now() const {
  double rate = 0.0;
  for (const auto& p : pools_) rate += p->cloud_rate();
  return rate;
}

double StreamingSystem::peer_rate_now() const {
  double rate = 0.0;
  for (const auto& p : pools_) rate += p->peer_rate();
  return rate;
}

void StreamingSystem::sample_bandwidth(double now) {
  metrics_.reserved_mbps.add(now, util::to_mbps(cloud_->reserved_bandwidth()));
  metrics_.used_cloud_mbps.add(now, util::to_mbps(cloud_rate_now()));
  metrics_.used_peer_mbps.add(now, util::to_mbps(peer_rate_now()));
  metrics_.concurrent_users.add(now, static_cast<double>(live_peers_));
  for (int c = 0; c < num_channels_; ++c) {
    metrics_.channels[static_cast<std::size_t>(c)].size.add(
        now, static_cast<double>(members_[static_cast<std::size_t>(c)].size()));
  }
}

bool StreamingSystem::peer_is_smooth(const Peer& peer) const {
  const double now = sim_->now();
  if (peer.last_late > now - options_.quality_window) return false;
  // An in-flight download already past its deadline is a stall in progress.
  if (peer.downloading && now - peer.download_start > params_.chunk_duration) {
    return false;
  }
  return true;
}

double StreamingSystem::system_quality_now() const {
  if (live_peers_ == 0) return 1.0;
  std::size_t smooth = 0;
  for (const Peer& peer : slab_) {
    if (peer.live && peer_is_smooth(peer)) ++smooth;
  }
  return static_cast<double>(smooth) / static_cast<double>(live_peers_);
}

double StreamingSystem::channel_quality_now(int channel) const {
  const auto ch = static_cast<std::size_t>(channel);
  if (members_[ch].empty()) return 1.0;
  std::size_t smooth = 0;
  for (const std::uint32_t slot : members_[ch]) {
    if (peer_is_smooth(slab_[slot])) ++smooth;
  }
  return static_cast<double>(smooth) / static_cast<double>(members_[ch].size());
}

void StreamingSystem::sample_quality(double now) {
  metrics_.quality.add(now, system_quality_now());
  for (int c = 0; c < num_channels_; ++c) {
    metrics_.channels[static_cast<std::size_t>(c)].quality.add(
        now, channel_quality_now(c));
  }
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

std::size_t SystemMetrics::total_samples() const noexcept {
  std::size_t n = reserved_mbps.size() + used_cloud_mbps.size() +
                  used_peer_mbps.size() + quality.size() +
                  vm_cost_rate.size() + storage_cost_rate.size() +
                  concurrent_users.size();
  for (const ChannelSeries& series : channels) {
    n += series.size.size() + series.quality.size() +
         series.provisioned_mbps.size() + series.storage_utility.size() +
         series.vm_utility.size();
  }
  return n;
}

void SystemMetrics::downsample(std::size_t stride) {
  CM_EXPECTS(stride >= 1);
  if (stride == 1) return;
  for (util::TimeSeries* series :
       {&reserved_mbps, &used_cloud_mbps, &used_peer_mbps, &quality,
        &vm_cost_rate, &storage_cost_rate, &concurrent_users}) {
    *series = series->strided(stride);
  }
  for (ChannelSeries& series : channels) {
    series.size = series.size.strided(stride);
    series.quality = series.quality.strided(stride);
    series.provisioned_mbps = series.provisioned_mbps.strided(stride);
    series.storage_utility = series.storage_utility.strided(stride);
    series.vm_utility = series.vm_utility.strided(stride);
  }
}

}  // namespace cloudmedia::vod
