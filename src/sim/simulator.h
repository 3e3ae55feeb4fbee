#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.h"

namespace cloudmedia::sim {

/// Handle of a scheduled event: slot index in the low 32 bits, that slot's
/// generation in the high 32. Generations start at 1, so no live id is 0.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

namespace detail {
/// Generation a recycled slot takes next. Throws std::overflow_error
/// rather than wrapping: a wrapped generation would let a stale EventId
/// cancel or retime whichever event now holds the slot.
std::uint32_t next_generation(std::uint32_t generation);
}  // namespace detail

/// Deterministic single-threaded discrete-event simulator.
///
/// Events fire in (time, seq) order, where seq is a counter stamped afresh
/// on every schedule and every retime. Equal-time events therefore fire in
/// scheduling order, and retime(id, t) orders exactly like cancel(id)
/// followed by schedule_at(t), which keeps runs bitwise-reproducible for a
/// given seed. Callbacks may schedule, cancel and retime further events.
///
/// Storage layout (bench/micro_core.cc): callbacks live in a slab of
/// slots, recycled through a LIFO free list, so the slab is sized by the
/// peak number of *pending* events, never by run length or by how far
/// apart the ids of pending events are. Each slot carries a generation,
/// bumped when the slot is reused, and the EventId names slot plus
/// generation, so an id whose event already ran or was cancelled is
/// detected exactly. The binary min-heap holds trivially-movable
/// {time, seq, slot} entries, and every slot records its heap position:
/// cancel() removes the entry in place and retime() sifts it in place, so
/// the heap holds exactly the pending events — no tombstones. With the
/// small-buffer Callback the steady-state schedule→pop→run cycle performs
/// no allocation.
class Simulator {
 public:
  /// Scheduled events use the move-only small-buffer callback; every
  /// capture list the vod layer schedules fits its inline storage.
  using Callback = sim::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  EventId schedule_at(double t, Callback fn);
  /// Schedule `fn` after `delay` seconds (delay >= 0).
  EventId schedule_in(double delay, Callback fn);

  /// Schedule a whole batch in one call. Entries take their FIFO order
  /// from their batch position, so equal-time events fire in batch order
  /// (the same guarantee as a loop of schedule_at), but storage is
  /// reserved once and a batch that rivals the pending set is heapified in
  /// O(pending + batch) instead of O(batch · log pending). Returns the
  /// entries' ids in batch order (empty for an empty batch).
  std::vector<EventId> schedule_bulk(
      std::vector<std::pair<double, Callback>> batch);

  /// Cancel a pending event. Returns false if it already ran or was
  /// cancelled. Cancelling kInvalidEvent is a no-op returning false.
  bool cancel(EventId id) noexcept;

  /// Move the pending event `id` to time `t` (>= now()), keeping its id
  /// and callback. It fires after every event already pending at `t`,
  /// exactly as if it had been cancelled and scheduled anew.
  void retime(EventId id, double t);

  /// Run every event with timestamp <= t, then advance the clock to t.
  void run_until(double t);
  /// Run until the queue drains or `max_events` have fired.
  /// Returns the number of events processed.
  std::size_t run_all(std::size_t max_events = SIZE_MAX);

  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }

  /// Callback slab capacity in slots, which is the peak pending count so
  /// far (tests/benches only: pins the "slab is sized by peak pending
  /// events" contract). perfbench reports it as `sim.ring_slots`, hence
  /// the name.
  [[nodiscard]] std::size_t callback_ring_capacity() const noexcept {
    return callbacks_.size();
  }

  /// Handle controlling a periodic task; destroying the handle does NOT
  /// cancel the task (call cancel()). Copyable (shared control block).
  class PeriodicHandle {
   public:
    PeriodicHandle() = default;
    void cancel() noexcept {
      if (active_) *active_ = false;
    }
    [[nodiscard]] bool active() const noexcept { return active_ && *active_; }

   private:
    friend class Simulator;
    explicit PeriodicHandle(std::shared_ptr<bool> active)
        : active_(std::move(active)) {}
    std::shared_ptr<bool> active_;
  };

  /// Fire `fn(fire_time)` at `start`, `start + interval`, ... until the
  /// returned handle is cancelled. interval must be > 0.
  PeriodicHandle schedule_periodic(double start, double interval,
                                   std::function<void(double)> fn);

 private:
  struct Entry {
    double time;
    std::uint64_t seq;  ///< FIFO tie-break among equal times
    std::uint32_t slot;
    // min-heap order: earliest time first; FIFO among equal times.
    [[nodiscard]] bool operator<(const Entry& other) const noexcept {
      return time < other.time || (time == other.time && seq < other.seq);
    }
  };
  struct SlotState {
    std::uint32_t generation;
    std::uint32_t heap_pos;  ///< kNotQueued while the slot is free
  };

  /// True while `id` is scheduled and has neither run nor been cancelled.
  [[nodiscard]] bool is_pending(EventId id) const noexcept;
  void pop_and_run();
  /// Take a free slot (or grow the slab) for `fn`.
  std::uint32_t acquire(Callback&& fn);
  /// Unlink `slot`'s heap entry, free the slot and hand back its
  /// callback, so the caller destroys it on a consistent simulator.
  Callback release(std::uint32_t slot) noexcept;
  void place(std::size_t pos, const Entry& entry) noexcept;
  /// Index of `pos`'s earlier child among the first `size` entries, or
  /// `size` for a leaf.
  [[nodiscard]] std::size_t smallest_child(std::size_t pos,
                                           std::size_t size) const noexcept;
  void sift_up(std::size_t pos) noexcept;
  void sift_down(std::size_t pos) noexcept;
  /// Restore heap order around `pos` after its key changed either way.
  void sift(std::size_t pos) noexcept;

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Entry> heap_;  ///< binary min-heap on (time, seq)
  std::vector<Callback> callbacks_;  ///< by slot; null while free
  std::vector<SlotState> slots_;     ///< by slot, parallel to callbacks_
  std::vector<std::uint32_t> free_;  ///< LIFO; capacity kept >= slab size
};

}  // namespace cloudmedia::sim
