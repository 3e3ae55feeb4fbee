#pragma once

#include <cstdint>
#include <deque>
#include <functional>
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

/// Low bits of a heap key that name the event's slot; seq gets the other
/// 64 - kSlotBits (2^40 schedules and retimes per simulator).
inline constexpr int kSlotBits = 24;
/// Heap key `seq << kSlotBits | slot`. Throws std::overflow_error rather
/// than truncating: seq past its bit budget would wrap and break the FIFO
/// order, and a slot past 2^kSlotBits would alias another slot.
std::uint64_t heap_key(std::uint64_t seq, std::uint64_t slot);
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
/// detected exactly. The binary min-heap holds 16-byte {time, key}
/// entries, four to a cache line, with key = seq << kSlotBits | slot
/// (detail::heap_key): 24 bits name the slot (at most 2^24 events
/// pending) and 40 count schedules and retimes. seq is unique and sits
/// above the slot, so comparing (time, key) is exactly comparing
/// (time, seq); heap_key throws rather than let either field overflow.
/// Every slot records its heap position: cancel() removes the entry in
/// place and retime() sifts it in place, so the heap holds exactly the
/// pending events — no tombstones. With the small-buffer Callback the
/// steady-state schedule→pop→run cycle performs no allocation. Once a pop
/// has unlinked its event, and before running it, pop_and_run prefetches
/// the new top's callback slot and the address its scheduler named as
/// the prefetch hint (the peer record the event will read), so both lines
/// load while the current callback runs. A hint is only an address
/// handed to a prefetch instruction, never dereferenced: one left stale by
/// slot reuse or slab growth costs a wasted prefetch, not a wrong read.
class Simulator {
 public:
  /// Scheduled events use the move-only small-buffer callback; every
  /// capture list the vod layer schedules fits its inline storage.
  using Callback = sim::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()). `prefetch`
  /// names memory `fn` will read; it is prefetched when the event reaches
  /// the top of the queue and has no effect on order or outcome.
  EventId schedule_at(double t, Callback fn, const void* prefetch = nullptr);
  /// Schedule `fn` after `delay` seconds (delay >= 0).
  EventId schedule_in(double delay, Callback fn,
                      const void* prefetch = nullptr);

  /// Schedule a whole batch in one call. Entries take their FIFO order
  /// from their batch position, so equal-time events fire in batch order
  /// (the same guarantee as a loop of schedule_at), but storage is
  /// reserved once and a batch that rivals the pending set is heapified in
  /// O(pending + batch) instead of O(batch · log pending). Returns the
  /// entries' ids in batch order (empty for an empty batch). Batch
  /// entries carry no prefetch hint.
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

  /// Fire `fn(fire_time)` at `start`, `start + interval`, ... for the
  /// simulator's lifetime. interval must be > 0. Each firing runs `fn`
  /// before it schedules the next one, so an event `fn` schedules at the
  /// next firing time runs ahead of that firing.
  void schedule_periodic(double start, double interval,
                         std::function<void(double)> fn);

 private:
  struct Entry {
    double time;
    std::uint64_t key;  ///< detail::heap_key(seq, slot)
    // min-heap order: earliest time first; FIFO among equal times. Bitwise
    // on the comparisons so picking the earlier child is not a branch.
    [[nodiscard]] bool operator<(const Entry& other) const noexcept {
      return (time < other.time) | ((time == other.time) & (key < other.key));
    }
  };
  static_assert(sizeof(Entry) == 16);
  struct Periodic {
    double interval;
    std::function<void(double)> fn;
  };
  struct SlotState {
    std::uint32_t generation;
    std::uint32_t heap_pos;  ///< kNotQueued while the slot is free
  };

  /// True while `id` is scheduled and has neither run nor been cancelled.
  [[nodiscard]] bool is_pending(EventId id) const noexcept;
  void pop_and_run();
  /// Run `task` at `t`, then schedule its firing at `t + interval`.
  void fire(Periodic& task, double t);
  /// Take a free slot (or grow the slab) for `fn` and its prefetch hint;
  /// returns the heap key of that slot under a fresh seq.
  std::uint64_t acquire(Callback&& fn, std::uintptr_t prefetch);
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
  std::vector<Entry> heap_;  ///< binary min-heap on (time, key)
  std::vector<Callback> callbacks_;  ///< by slot; null while free
  std::vector<SlotState> slots_;     ///< by slot, parallel to callbacks_
  std::vector<std::uintptr_t> prefetch_;  ///< by slot: hint address or 0
  std::vector<std::uint32_t> free_;  ///< LIFO; capacity kept >= slab size
  std::deque<Periodic> periodics_;  ///< stable addresses the firings name
};

}  // namespace cloudmedia::sim
