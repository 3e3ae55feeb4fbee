#include "vod/service_pool.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/check.h"

namespace cloudmedia::vod {

namespace {
/// Completion tolerance in bytes; pools serve megabyte-scale chunks.
constexpr double kEpsBytes = 1e-5;

/// Once the dead prefix holds this many entries *and* outnumbers the live
/// jobs, slide the live tail down. Amortized O(1) per completion; the
/// floor keeps tiny pools from memmoving on every other event.
constexpr std::size_t kCompactMinDead = 64;

/// Smallest representable time step from `now` (one double ULP). Work that
/// would complete within a few of these cannot be scheduled as a future
/// event — `now + dt` rounds back to `now` and the timer would spin at a
/// frozen clock. Completion checks therefore treat anything within
/// 4 quanta of service as done.
double time_quantum(double now) noexcept {
  return std::nextafter(std::abs(now), std::numeric_limits<double>::infinity()) -
         std::abs(now);
}
}

ServicePool::ServicePool(sim::Simulator& simulator, double per_job_cap,
                         CompletionHandler on_complete)
    : sim_(&simulator),
      per_job_cap_(per_job_cap),
      on_complete_(std::move(on_complete)),
      last_update_(simulator.now()) {
  CM_EXPECTS(per_job_cap_ > 0.0);
  CM_EXPECTS(on_complete_ != nullptr);
}

double ServicePool::per_job_rate() const noexcept {
  if (active_jobs() == 0 && fluid_jobs_ <= 0.0) return 0.0;
  const double n = static_cast<double>(active_jobs()) + fluid_jobs_;
  return std::min(per_job_cap_, total_capacity() / n);
}

double ServicePool::total_rate() const noexcept {
  return per_job_rate() * (static_cast<double>(active_jobs()) + fluid_jobs_);
}

double ServicePool::peer_rate() const noexcept {
  return std::min(total_rate(), peer_cap_);
}

double ServicePool::cloud_rate() const noexcept {
  return std::max(0.0, total_rate() - peer_cap_);
}

void ServicePool::advance() {
  const double now = sim_->now();
  const double dt = now - last_update_;
  if (dt > 0.0 && (active_jobs() != 0 || fluid_jobs_ > 0.0)) {
    const double rate = per_job_rate();
    service_level_ += rate * dt;
    const double total =
        rate * (static_cast<double>(active_jobs()) + fluid_jobs_);
    const double peer = std::min(total, peer_cap_);
    peer_bytes_ += peer * dt;
    cloud_bytes_ += (total - peer) * dt;
  }
  last_update_ = now;
  maybe_rebase();
}

void ServicePool::compact() {
  jobs_.erase(jobs_.begin(),
              jobs_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
}

void ServicePool::maybe_rebase() {
  // service_level_ only matters *relative to the outstanding targets*, but
  // it accumulates without bound (≈ per-job rate × busy time). Once its
  // magnitude passes ~2^35 bytes, one double ULP exceeds kEpsBytes and
  // `level += rate·dt` can round to zero progress — the pool then
  // reschedules the same completion forever at an unmoving clock (a
  // livelock that froze week-long simulations around t = 2^17 s). Rebase
  // to zero whenever it is safe or the magnitude approaches the danger
  // zone; at the 1e9 threshold the ULP is ~2.4e-7, two orders below the
  // completion tolerance.
  if (active_jobs() == 0) {
    jobs_.clear();
    head_ = 0;
    service_level_ = 0.0;
    return;
  }
  constexpr double kRebaseThreshold = 1e9;
  if (service_level_ < kRebaseThreshold) return;
  const double base = service_level_;
  // In-place: same doubles, same ascending order as the old map rebuild,
  // minus the node churn. Dead entries are dropped first so the loop only
  // touches live jobs.
  compact();
  for (JobRec& job : jobs_) job.target -= base;
  service_level_ = 0.0;
}

void ServicePool::sync() { advance(); }

void ServicePool::reschedule() {
  const double rate = active_jobs() == 0 ? 0.0 : per_job_rate();
  if (rate <= 0.0) {  // idle, or starved: resumes when capacity returns
    if (pending_ != sim::kInvalidEvent) {
      sim_->cancel(pending_);
      pending_ = sim::kInvalidEvent;
    }
    return;
  }
  const double next_target = jobs_[head_].target;
  double dt = std::max(0.0, (next_target - service_level_) / rate);
  // Defensive progress guarantee: a timer that lands back on `now` (dt
  // below the clock's resolution) would re-run this path forever with a
  // frozen clock. The completion tolerance in on_timer() makes this
  // unreachable; keep the guard in case a caller path misses it.
  while (sim_->now() + dt == sim_->now()) {
    dt = dt > 0.0 ? 2.0 * dt : time_quantum(sim_->now());
  }
  // One timer per pool, moved in place; retime gives it the same FIFO
  // place among equal-time events that a fresh schedule_at would.
  const double fire_at = sim_->now() + dt;
  if (pending_ != sim::kInvalidEvent) {
    sim_->retime(pending_, fire_at);
  } else {
    pending_ = sim_->schedule_at(fire_at, [this] { on_timer(); });
  }
}

void ServicePool::on_timer() {
  pending_ = sim::kInvalidEvent;
  advance();
  done_.clear();
  // Tolerance: the byte floor, plus whatever service the simulator clock
  // cannot resolve at this rate (see time_quantum above).
  const double eps =
      std::max(kEpsBytes, per_job_rate() * 4.0 * time_quantum(sim_->now()));
  while (head_ < jobs_.size() &&
         jobs_[head_].target <= service_level_ + eps) {
    const JobRec& rec = jobs_[head_];
    Completion c;
    c.tag = rec.tag;
    c.enqueue_time = rec.enqueue_time;
    c.sojourn = sim_->now() - rec.enqueue_time;
    ++head_;
    done_.push_back(c);
  }
  if (head_ >= kCompactMinDead && head_ * 2 >= jobs_.size()) compact();
  reschedule();
  // Handlers run on a consistent pool; they may re-enter via add_job,
  // which does not touch done_, and only the simulator calls
  // on_timer — never from inside this loop, since reschedule() queues the
  // next timer rather than firing it — so the batch cannot be clobbered.
  for (const Completion& c : done_) on_complete_(c);
}

void ServicePool::set_capacity(double peer_capacity, double cloud_capacity) {
  CM_EXPECTS(peer_capacity >= 0.0);
  CM_EXPECTS(cloud_capacity >= 0.0);
  advance();
  peer_cap_ = peer_capacity;
  cloud_cap_ = cloud_capacity;
  reschedule();
}

void ServicePool::set_fluid_jobs(double jobs) {
  CM_EXPECTS(jobs >= 0.0 && std::isfinite(jobs));
  advance();
  fluid_jobs_ = jobs;
  reschedule();
}

void ServicePool::add_job(double bytes, std::uint64_t tag) {
  CM_EXPECTS(bytes > 0.0);
  advance();
  const double target = service_level_ + bytes;
  const JobRec rec{target, tag, sim_->now()};
  if (active_jobs() == 0 || jobs_.back().target <= target) {
    // Fast path: the new target ties or beats the current maximum; append
    // puts it after every equal target, i.e. in enqueue order.
    jobs_.push_back(rec);
  } else {
    // upper_bound: after every equal target already queued.
    const auto pos = std::upper_bound(
        jobs_.begin() + static_cast<std::ptrdiff_t>(head_), jobs_.end(), target,
        [](double t, const JobRec& job) { return t < job.target; });
    jobs_.insert(pos, rec);
  }
  reschedule();
}

}  // namespace cloudmedia::vod
