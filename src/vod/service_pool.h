#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"

namespace cloudmedia::vod {

/// Bandwidth pool serving the concurrent retrievals of one (channel, chunk).
///
/// Processor sharing with a per-connection cap: `n` active downloads each
/// progress at min(per_job_cap, capacity / n) — what an Apache-style
/// streaming server actually does, as opposed to the M/M/m FIFO of the
/// paper's *model* (the model-vs-system gap is part of what the evaluation
/// validates; see DESIGN.md).
///
/// Capacity has two components: peer upload (P2P overlay) and cloud VMs.
/// Peers are drawn on first ("resort to streaming servers only when deemed
/// necessary", Sec. III-B): the instantaneous cloud rate is
/// max(0, total_rate − peer_capacity).
///
/// Implementation: all jobs share one rate, so a job completes when the
/// pool's cumulative per-job service level reaches (level at enqueue +
/// chunk bytes). Jobs live in a vector sorted ascending by (target, id)
/// with a dead prefix marker: completions just advance `head_` (no erase,
/// no rebuild), and because chunks in one pool are near-uniform in size,
/// the common add_job is an O(1) push_back — new targets are almost always
/// the largest outstanding. The previous design kept a std::map plus a
/// parallel id→target hash map and paid a node allocation per job and a
/// full map rebuild per rebase; the vector rebases in place with the same
/// doubles in the same order, so results are bit-identical.
class ServicePool {
 public:
  struct Completion {
    std::uint64_t job_id = 0;
    std::uint64_t tag = 0;          ///< caller context (peer id)
    double enqueue_time = 0.0;
    double sojourn = 0.0;           ///< wait + download time
  };
  using CompletionHandler = std::function<void(const Completion&)>;

  /// `per_job_cap`: max bytes/s a single download may receive (the paper's
  /// per-VM bandwidth R bounds one connection).
  ServicePool(sim::Simulator& simulator, double per_job_cap,
              CompletionHandler on_complete);

  ServicePool(const ServicePool&) = delete;
  ServicePool& operator=(const ServicePool&) = delete;

  /// Update capacity components (bytes/s) as of now.
  void set_capacity(double peer_capacity, double cloud_capacity);

  /// Enqueue a download of `bytes`; returns a job id.
  std::uint64_t add_job(double bytes, std::uint64_t tag);
  /// Abort a job (no completion fires). Returns false if unknown.
  bool remove_job(std::uint64_t job_id);

  /// Fluid load from the cohort engine: a (fractional) count of
  /// statistically-identical downloads sharing this pool alongside any
  /// discrete jobs. Fluid jobs enter the processor-sharing denominator and
  /// the byte accounting, but have no per-job identity and never complete —
  /// the cohort engine advances its occupancy mass itself and re-sets this
  /// figure each rebalance tick. 0.0 (the default) is bit-neutral: every
  /// rate and byte the discrete engine computes is unchanged.
  void set_fluid_jobs(double jobs);
  [[nodiscard]] double fluid_jobs() const noexcept { return fluid_jobs_; }

  [[nodiscard]] std::size_t active_jobs() const noexcept {
    return jobs_.size() - head_;
  }
  [[nodiscard]] double peer_capacity() const noexcept { return peer_cap_; }
  [[nodiscard]] double cloud_capacity() const noexcept { return cloud_cap_; }
  [[nodiscard]] double total_capacity() const noexcept {
    return peer_cap_ + cloud_cap_;
  }

  /// Instantaneous service rates (bytes/s).
  [[nodiscard]] double total_rate() const noexcept;
  [[nodiscard]] double peer_rate() const noexcept;
  [[nodiscard]] double cloud_rate() const noexcept;
  /// Rate each (discrete or fluid) job currently receives:
  /// min(per_job_cap, capacity / (discrete + fluid jobs)); 0 when idle.
  [[nodiscard]] double per_job_rate() const noexcept;

  /// Cumulative bytes served, split by source (advanced lazily; exact as
  /// of the last event, which is what the hourly tracker needs).
  [[nodiscard]] double cloud_bytes_served() const noexcept { return cloud_bytes_; }
  [[nodiscard]] double peer_bytes_served() const noexcept { return peer_bytes_; }

  /// Advance internal accounting to now (e.g. before reading byte counters
  /// at a sampling instant).
  void sync();

 private:
  struct JobRec {
    double target;         ///< service level at which this job completes
    std::uint64_t id;
    std::uint64_t tag;
    double enqueue_time;
  };

  void advance();
  void maybe_rebase();
  void reschedule();
  void on_timer();
  /// Drop the dead prefix [0, head_) so indices restart at the live jobs.
  void compact();

  sim::Simulator* sim_;
  double per_job_cap_;
  CompletionHandler on_complete_;

  double peer_cap_ = 0.0;
  double cloud_cap_ = 0.0;
  double fluid_jobs_ = 0.0;
  double service_level_ = 0.0;  ///< cumulative per-job bytes served
  double last_update_ = 0.0;
  double cloud_bytes_ = 0.0;
  double peer_bytes_ = 0.0;

  std::uint64_t next_job_id_ = 1;
  // Ascending by (target, id); entries before head_ are completed/removed.
  // Ids are allocated monotonically, so push_back keeps the order whenever
  // the new target ties or exceeds the current maximum (the common case:
  // fixed chunk bytes means targets enqueue in nondecreasing order).
  std::vector<JobRec> jobs_;
  std::size_t head_ = 0;
  // The pool's one completion timer: retimed in place on every re-arm,
  // cancelled only when the pool goes idle or starved.
  sim::EventId pending_ = sim::kInvalidEvent;
};

}  // namespace cloudmedia::vod
