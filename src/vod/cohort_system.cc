#include "vod/cohort_system.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace cloudmedia::vod {

namespace {
/// Floor for a pool rate when estimating sojourns (a starved pool would
/// otherwise divide by zero; the dwell clamp below bounds the result).
constexpr double kRateFloor = 1e-9;
/// A download can stretch its position dwell to at most this many chunk
/// durations (mirrors how badly a starved discrete viewer can stall before
/// provisioning reacts within one interval).
constexpr double kMaxStallFactor = 4.0;
}  // namespace

double download_mass(double occ, double owned, double alive) {
  if (alive <= 0.0) return 0.0;
  const double own_prob = std::min(1.0, owned / alive);
  return occ * (1.0 - own_prob);
}

CohortSystem::CohortSystem(sim::Simulator& simulator,
                           const workload::Workload& workload,
                           core::VodParameters params,
                           cloud::CloudService& cloud,
                           std::unique_ptr<core::Controller> controller,
                           CohortOptions options)
    // The cohort engine never enqueues discrete jobs, so its pools' completion
    // handlers are unreachable; pools exist for capacity splitting, fluid
    // processor sharing, and byte accounting.
    : Deployment(simulator, workload, params, cloud, std::move(controller),
                 options.streaming,
                 [](int, int) -> ServicePool::CompletionHandler {
                   return [](const ServicePool::Completion&) {};
                 }),
      window_(options.window) {
  CM_EXPECTS(window_ > 0.0);

  const auto j_count = static_cast<std::size_t>(num_chunks_);
  const auto c_count = static_cast<std::size_t>(num_channels_);
  for (std::vector<double>* row :
       {&next_occ_, &flows_, &fluid_, &cloud_alloc_, &peer_alloc_}) {
    row->assign(j_count, 0.0);
  }
  order_.assign(j_count, 0);
  dl_mass_.assign(pools_.size(), 0.0);
  owned_mass_.assign(pools_.size(), 0.0);
  pool_stalled_.assign(pools_.size(), 0);
  channel_uplink_.assign(c_count, 0.0);
  stalled_.assign(c_count, 0.0);
  channel_mass_.assign(c_count, 0.0);
  row_mass_.assign(c_count * j_count, 0.0);
  refresh_behavior_cache();
}

std::size_t CohortSystem::cell(std::size_t slot, int chunk) const {
  return slot * static_cast<std::size_t>(num_chunks_) +
         static_cast<std::size_t>(chunk);
}

CohortSystem::SlotView CohortSystem::slot_view(std::size_t slot) const {
  CM_EXPECTS(slot < live_.size());
  const auto j_count = static_cast<std::size_t>(num_chunks_);
  const std::size_t base = slot * j_count;
  return {live_[slot] != 0, channel_of_[slot], alive_[slot],
          std::span<const double>(occ_).subspan(base, j_count),
          std::span<const double>(owned_).subspan(base, j_count),
          std::span<const double>(download_).subspan(base, j_count)};
}

double CohortSystem::peak_viewer_mass() const {
  return std::max(0.0, metrics_.concurrent_users.max_value());
}

double CohortSystem::channel_viewer_mass(int channel) const {
  CM_EXPECTS(channel >= 0 && channel < num_channels_);
  return channel_mass_[static_cast<std::size_t>(channel)];
}

void CohortSystem::refresh_behavior_cache() {
  const workload::ViewingBehavior& behavior = workload_->config().behavior;
  chain_ = behavior.chain(num_chunks_);
  entry_dist_ = behavior.entry_distribution(num_chunks_);
}

void CohortSystem::schedule_start() {
  for (int c = 0; c < num_channels_; ++c) {
    arrivals_.push_back(workload_->make_cohort_arrivals(c, window_));
  }
  schedule_bootstrap();
  // Arrival windows: the tick at t covers [t, t + window).
  sim_->schedule_periodic(sim_->now(), window_,
                          [this](double t) { window_tick(t); });
  schedule_periodics();
}

std::size_t CohortSystem::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::size_t slot = live_.size();
  live_.push_back(0);
  generation_.push_back(0);
  channel_of_.push_back(0);
  alive_.push_back(0.0);
  uplink_rate_.push_back(0.0);
  occ_.resize(occ_.size() + static_cast<std::size_t>(num_chunks_), 0.0);
  owned_.resize(owned_.size() + static_cast<std::size_t>(num_chunks_), 0.0);
  download_.resize(download_.size() + static_cast<std::size_t>(num_chunks_),
                   0.0);
  return slot;
}

void CohortSystem::flush_row_mass() {
  const auto j_count = static_cast<std::size_t>(num_chunks_);
  for (int c = 0; c < num_channels_; ++c) {
    double* const row_mass =
        row_mass_.data() + static_cast<std::size_t>(c) * j_count;
    for (int j = 0; j < num_chunks_; ++j) {
      const double m = row_mass[static_cast<std::size_t>(j)];
      if (m <= 0.0) continue;
      for (int k = 0; k < num_chunks_; ++k) {
        flows_[static_cast<std::size_t>(k)] = m * chain_.transfer(j, k);
      }
      tracker_.record_flows(c, j, flows_, m * chain_.leave(j));
      row_mass[static_cast<std::size_t>(j)] = 0.0;
      ++counters_.tracker_rows;
    }
  }
}

void CohortSystem::window_tick(double now) {
  // Report the closing window's rows under the P they moved by, before
  // refresh_behavior_cache can reshape it.
  flush_row_mass();
  refresh_behavior_cache();
  const double uplink_mean = workload_->uplink_distribution().mean();

  std::vector<std::pair<double, sim::Simulator::Callback>> batch;
  for (int c = 0; c < num_channels_; ++c) {
    const long long n = arrivals_[static_cast<std::size_t>(c)].sample_count(now);
    if (n <= 0) continue;

    const std::size_t slot = allocate_slot();
    live_[slot] = 1;
    ++live_cohorts_;
    channel_of_[slot] = c;
    const auto mass = static_cast<double>(n);
    alive_[slot] = mass;
    uplink_rate_[slot] = uplink_mean;
    for (int j = 0; j < num_chunks_; ++j) {
      const double m = mass * entry_dist_[static_cast<std::size_t>(j)];
      occ_[cell(slot, j)] = m;
      owned_[cell(slot, j)] = 0.0;
      download_[cell(slot, j)] = download_mass(m, 0.0, mass);
      if (m > 0.0) tracker_.record_arrival(c, j, m);
    }
    ++counters_.cohorts;
    ++counters_.download_rows;
    arrivals_count_ += n;
    channel_mass_[static_cast<std::size_t>(c)] += mass;
    total_mass_ += mass;

    // First transition after one nominal dwell; the transition itself
    // re-estimates subsequent dwells from live pool rates. All first
    // transitions of this window go to the heap as one bulk batch.
    const std::uint32_t generation = generation_[slot];
    batch.emplace_back(now + params_.chunk_duration,
                       [this, slot, generation] { transition(slot, generation); });
  }
  if (!batch.empty()) sim_->schedule_bulk(std::move(batch));
  sync_counters();
}

void CohortSystem::transition(std::size_t slot, std::uint32_t generation) {
  if (slot >= live_.size() || !live_[slot] || generation_[slot] != generation) {
    return;  // stale event from a recycled slot
  }
  const int c = channel_of_[slot];
  const double alive = alive_[slot];
  if (alive < CohortOptions::min_mass) {
    retire(slot);
    return;
  }
  ++counters_.transitions;

  const auto j_count = static_cast<std::size_t>(num_chunks_);
  double* const occ = occ_.data() + slot * j_count;
  double* const owned = owned_.data() + slot * j_count;
  double* const dl = download_.data() + slot * j_count;
  const std::unique_ptr<ServicePool>* const pools =
      pools_.data() + pool_index(c, 0);
  double* const row_mass =
      row_mass_.data() + static_cast<std::size_t>(c) * j_count;
  const double chunk_bytes = params_.chunk_bytes();
  const double t0 = params_.chunk_duration;
  double dl_total = 0.0;
  double replay_total = 0.0;
  double dwell_weighted = 0.0;

  // Phase 1 — the position each viewer just finished: split occupancy into
  // fresh downloads (the cached download row) vs buffered replays, estimate
  // the dwell the download cost (the pool's current fluid rate decides
  // whether it stalled), and absorb the downloaded chunks into ownership.
  // The tracker needs only each row's stepped mass: the chain is fixed
  // until the next flush_row_mass, which reports M·P(j,·) once per
  // (channel, row).
  for (std::size_t j = 0; j < j_count; ++j) {
    const double o = occ[j];
    if (o <= 0.0) continue;
    row_mass[j] += o;
    const double d = dl[j];
    const double replay = o - d;
    dl_total += d;
    replay_total += replay;
    dwell_weighted += replay * t0;
    if (d > 0.0) {
      const double rate = std::max(pools[j]->per_job_rate(), kRateFloor);
      const double sojourn = chunk_bytes / rate;
      if (sojourn > t0 + 1e-9) late_mass_ += d;
      const double dwell = std::clamp(sojourn, t0, kMaxStallFactor * t0);
      dwell_weighted += d * dwell;
    }
  }
  downloads_mass_ += dl_total;
  replays_mass_ += replay_total;

  // Phase 2 — advance every viewer along the ground-truth viewing chain at
  // once, in O(J).
  const double* const next_occ = next_occ_.data();
  const double stay_total =
      chain_.step(std::span<const double>(occ, j_count), next_occ_);
  const double departed = std::max(0.0, alive - stay_total);
  departures_mass_ += departed;

  // Ownership: downloads convert occupancy into owned chunks, then the
  // whole vector scales by the survival ratio (leavers take their buffers
  // with them; ownership within a cohort is independent of who leaves).
  // The download row is re-derived from the new cells in the same pass.
  // Positions phase 1 skipped as unoccupied cache +0.0, so their ownership
  // add is exact.
  const double survival = std::min(1.0, stay_total / alive);
  for (std::size_t j = 0; j < j_count; ++j) {
    const double mid = std::min(alive, owned[j] + dl[j]);
    owned[j] = mid * survival;
    occ[j] = next_occ[j];
    dl[j] = download_mass(occ[j], owned[j], stay_total);
  }
  ++counters_.download_rows;
  alive_[slot] = stay_total;
  channel_mass_[static_cast<std::size_t>(c)] += stay_total - alive;
  total_mass_ += stay_total - alive;
  sync_counters();

  if (stay_total < CohortOptions::min_mass) {
    retire(slot);
    return;
  }
  const double total_flow = dl_total + replay_total;
  const double dwell = total_flow > 0.0 ? dwell_weighted / total_flow : t0;
  const std::uint32_t gen = generation_[slot];
  sim_->schedule_in(dwell, [this, slot, gen] { transition(slot, gen); });
}

void CohortSystem::retire(std::size_t slot) {
  const int c = channel_of_[slot];
  const double residual = std::max(0.0, alive_[slot]);
  // Sub-min_mass residue departs without per-chunk flows — it is below the
  // engine's resolution by construction.
  departures_mass_ += residual;
  channel_mass_[static_cast<std::size_t>(c)] -= residual;
  total_mass_ -= residual;
  alive_[slot] = 0.0;
  for (int j = 0; j < num_chunks_; ++j) {
    occ_[cell(slot, j)] = 0.0;
    owned_[cell(slot, j)] = 0.0;
    download_[cell(slot, j)] = 0.0;
  }
  live_[slot] = 0;
  ++generation_[slot];
  --live_cohorts_;
  free_slots_.push_back(slot);
  sync_counters();
}

void CohortSystem::sync_counters() {
  metrics_.counters.arrivals = static_cast<long>(arrivals_count_);
  metrics_.counters.departures = std::lround(departures_mass_);
  metrics_.counters.chunk_downloads = std::lround(downloads_mass_);
  metrics_.counters.late_downloads = std::lround(late_mass_);
  metrics_.counters.buffered_replays = std::lround(replays_mass_);
}

// --- provisioning loop ------------------------------------------------------

void CohortSystem::harvest_population(
    std::vector<std::vector<double>>& occupancy, std::vector<double>& mean_uplink) {
  flush_row_mass();  // Tracker::harvest runs next
  std::vector<double> uplink_weighted(static_cast<std::size_t>(num_channels_),
                                      0.0);
  const auto j_count = static_cast<std::size_t>(num_chunks_);
  for (std::size_t slot = 0; slot < live_.size(); ++slot) {
    if (!live_[slot]) continue;
    const auto ch = static_cast<std::size_t>(channel_of_[slot]);
    const double* const occ = occ_.data() + slot * j_count;
    double* const sum = occupancy[ch].data();
    for (std::size_t j = 0; j < j_count; ++j) sum[j] += occ[j];
    uplink_weighted[ch] += alive_[slot] * uplink_rate_[slot];
  }
  for (std::size_t ch = 0; ch < mean_uplink.size(); ++ch) {
    mean_uplink[ch] = channel_mass_[ch] > 0.0
                          ? uplink_weighted[ch] / channel_mass_[ch]
                          : workload_->uplink_distribution().mean();
  }
}

void CohortSystem::rebalance_capacity() {
  // The fluid analogue of StreamingSystem::rebalance_capacity: demand per
  // (channel, chunk) is the download-active mass scaled by a duty factor
  // (the fraction of its dwell a downloading viewer actually occupies the
  // pool: sojourn / dwell, 1 when the pool is at or below the streaming
  // rate), fed to the pools as fluid job counts; the cloud share re-splits
  // across chunks by fluid demand + standby weight, and in P2P mode the
  // aggregate cohort uplink waterfalls rarest-first over ownership mass.
  // The arena walk sums cached download rows; only the P2P waterfall reads
  // ownership sums, so C/S mode skips them.
  const double r = params_.streaming_rate;
  const double t0 = params_.chunk_duration;
  const auto j_count = static_cast<std::size_t>(num_chunks_);
  const bool p2p = options_.mode == core::StreamingMode::kP2p;

  std::fill(dl_mass_.begin(), dl_mass_.end(), 0.0);
  if (p2p) std::fill(owned_mass_.begin(), owned_mass_.end(), 0.0);
  std::fill(channel_uplink_.begin(), channel_uplink_.end(), 0.0);
  for (std::size_t slot = 0; slot < live_.size(); ++slot) {
    if (!live_[slot]) continue;
    const int c = channel_of_[slot];
    const double* const dl = download_.data() + slot * j_count;
    const std::size_t base = pool_index(c, 0);
    double* const dl_sum = dl_mass_.data() + base;
    for (std::size_t j = 0; j < j_count; ++j) dl_sum[j] += dl[j];
    if (p2p) {
      const double* const owned = owned_.data() + slot * j_count;
      double* const owned_sum = owned_mass_.data() + base;
      for (std::size_t j = 0; j < j_count; ++j) owned_sum[j] += owned[j];
    }
    channel_uplink_[static_cast<std::size_t>(c)] +=
        alive_[slot] * uplink_rate_[slot];
  }

  double* const fluid = fluid_.data();
  double* const cloud_alloc = cloud_alloc_.data();
  double* const peer_alloc = peer_alloc_.data();
  for (int c = 0; c < num_channels_; ++c) {
    const auto ch = static_cast<std::size_t>(c);
    const std::size_t base = pool_index(c, 0);
    const double* const dl_sum = dl_mass_.data() + base;
    const double* const owned_sum = owned_mass_.data() + base;
    const std::unique_ptr<ServicePool>* const pools = pools_.data() + base;

    // Fluid job counts: previous per-job rate estimates the duty factor
    // (starved pools → duty 1, over-provisioned pools → sojourn/T0 < 1).
    for (std::size_t j = 0; j < j_count; ++j) {
      const double m = dl_sum[j];
      if (m <= 0.0) {
        fluid[j] = 0.0;
        continue;
      }
      const double prev_rate = std::max(pools[j]->per_job_rate(), kRateFloor);
      const double duty =
          std::min(1.0, (params_.chunk_bytes() / prev_rate) / t0);
      fluid[j] = m * duty;
    }

    // Cloud share follows fluid demand, as the discrete engine follows
    // active jobs.
    split_cloud_share(c, fluid_, cloud_alloc_);

    // Peer share: rarest-first waterfall over ownership mass. The channel's
    // aggregate uplink supplies chunks ascending by owners; each chunk may
    // draw at most the uplink fraction its owners hold.
    std::fill(peer_alloc_.begin(), peer_alloc_.end(), 0.0);
    const double uplink = channel_uplink_[ch];
    if (p2p && channel_mass_[ch] > 0.0 && uplink > 0.0) {
      double total_owned = 0.0;
      for (std::size_t j = 0; j < j_count; ++j) total_owned += owned_sum[j];
      if (total_owned > 0.0) {
        // Ascending (owned mass, index): the stable order of equal masses,
        // without stable_sort's per-call buffer.
        std::iota(order_.begin(), order_.end(), 0);
        std::sort(order_.begin(), order_.end(), [owned_sum](int a, int b) {
          return owned_sum[a] < owned_sum[b] ||
                 (owned_sum[a] == owned_sum[b] && a < b);
        });
        double remaining = uplink;
        for (const int chunk : order_) {
          const double owners = owned_sum[chunk];
          if (owners <= 0.0) continue;
          const double demand = fluid[chunk] * r;
          const double available = uplink * owners / total_owned;
          const double give = std::min({demand, available, remaining});
          if (give <= 0.0) continue;
          peer_alloc[chunk] = give;
          remaining -= give;
        }
        // Residual uplink stands by over owned chunks, like the discrete
        // engine's per-peer residual split.
        if (remaining > 0.0) {
          for (std::size_t j = 0; j < j_count; ++j) {
            peer_alloc[j] += remaining * owned_sum[j] / total_owned;
          }
        }
      }
    }

    for (std::size_t j = 0; j < j_count; ++j) {
      pools[j]->set_capacity(peer_alloc[j], cloud_alloc[j]);
      pools[j]->set_fluid_jobs(fluid[j]);
    }
  }
}

// --- metrics ---------------------------------------------------------------

void CohortSystem::sample_quality(double now) {
  // Fluid quality: the mass currently downloading from a pool whose
  // per-job rate is below the streaming rate is stalled; smooth fraction =
  // 1 − stalled/total. Instantaneous (the discrete engine's per-viewer
  // quality_window bookkeeping has no cheap fluid analogue).
  // Each pool's stall verdict is taken once; the walk sums cached rows.
  const double stall_rate = params_.streaming_rate * (1.0 - 1e-9);
  const auto j_count = static_cast<std::size_t>(num_chunks_);
  for (std::size_t p = 0; p < pools_.size(); ++p) {
    pool_stalled_[p] = pools_[p]->per_job_rate() < stall_rate ? 1 : 0;
  }
  std::fill(stalled_.begin(), stalled_.end(), 0.0);
  for (std::size_t slot = 0; slot < live_.size(); ++slot) {
    if (!live_[slot]) continue;
    const int c = channel_of_[slot];
    const double* const dl = download_.data() + slot * j_count;
    const char* const stalled = pool_stalled_.data() + pool_index(c, 0);
    double& channel_stalled = stalled_[static_cast<std::size_t>(c)];
    for (std::size_t j = 0; j < j_count; ++j) {
      if (stalled[j] && dl[j] > 0.0) channel_stalled += dl[j];
    }
  }
  double stalled_total = 0.0;
  for (int c = 0; c < num_channels_; ++c) {
    const auto ch = static_cast<std::size_t>(c);
    stalled_total += stalled_[ch];
    const double mass = channel_mass_[ch];
    const double q =
        mass > 0.0 ? 1.0 - std::min(1.0, stalled_[ch] / mass) : 1.0;
    metrics_.channels[ch].quality.add(now, q);
  }
  const double q = total_mass_ > 0.0
                       ? 1.0 - std::min(1.0, stalled_total / total_mass_)
                       : 1.0;
  metrics_.quality.add(now, q);
}

}  // namespace cloudmedia::vod
