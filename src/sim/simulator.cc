#include "sim/simulator.h"

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.h"

namespace cloudmedia::sim {

namespace {
constexpr std::uint32_t kNotQueued = std::numeric_limits<std::uint32_t>::max();

std::uint32_t slot_of(EventId id) noexcept {
  return static_cast<std::uint32_t>(id);
}
std::uint32_t generation_of(EventId id) noexcept {
  return static_cast<std::uint32_t>(id >> 32);
}
EventId make_id(std::uint32_t slot, std::uint32_t generation) noexcept {
  return (EventId{generation} << 32) | slot;
}
constexpr std::uint64_t kKeySlotMask =
    (std::uint64_t{1} << detail::kSlotBits) - 1;

std::uint32_t key_slot(std::uint64_t key) noexcept {
  return static_cast<std::uint32_t>(key & kKeySlotMask);
}
}  // namespace

std::uint32_t detail::next_generation(std::uint32_t generation) {
  if (generation == std::numeric_limits<std::uint32_t>::max()) {
    throw std::overflow_error(
        "sim::Simulator: an event slot has been reused 2^32 - 1 times, and "
        "one more reuse would wrap its generation, letting a stale EventId "
        "cancel or retime an unrelated event. Split the run into shorter "
        "simulations, or widen EventId's generation field.");
  }
  return generation + 1;
}

std::uint64_t detail::heap_key(std::uint64_t seq, std::uint64_t slot) {
  if (slot >> kSlotBits != 0) {
    throw std::overflow_error(
        "sim::Simulator: 2^" + std::to_string(kSlotBits) +
        " events are pending at once, and the heap key has no bits for "
        "another slot. Pending events are one per peer timer and pool, so "
        "a population this size belongs on the cohort engine "
        "(engine=cohort); otherwise widen detail::kSlotBits.");
  }
  if (seq >> (64 - kSlotBits) != 0) {
    throw std::overflow_error(
        "sim::Simulator: 2^" + std::to_string(64 - kSlotBits) +
        " schedules and retimes have run on one simulator, and one more "
        "would wrap the FIFO sequence number, so equal-time events could "
        "fire out of order. Split the run into shorter simulations, or "
        "narrow detail::kSlotBits.");
  }
  return seq << kSlotBits | slot;
}

bool Simulator::is_pending(EventId id) const noexcept {
  const std::uint32_t slot = slot_of(id);
  return slot < slots_.size() && slots_[slot].heap_pos != kNotQueued &&
         slots_[slot].generation == generation_of(id);
}

std::uint64_t Simulator::acquire(Callback&& fn, std::uintptr_t prefetch) {
  // Pack the key and bump the generation before touching the free list or
  // the slab: an overflow leaves both intact.
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    const std::uint64_t key = detail::heap_key(next_seq_, slot);
    slots_[slot].generation = detail::next_generation(slots_[slot].generation);
    free_.pop_back();
    callbacks_[slot] = std::move(fn);
    prefetch_[slot] = prefetch;
    ++next_seq_;
    return key;
  }
  const std::uint64_t key = detail::heap_key(next_seq_, slots_.size());
  slots_.push_back(SlotState{1, kNotQueued});
  callbacks_.push_back(std::move(fn));
  prefetch_.push_back(prefetch);
  // release() pushes onto free_ from noexcept paths, so keep room for
  // every slot up front; this allocates only when the slab grows.
  free_.reserve(slots_.capacity());
  ++next_seq_;
  return key;
}

Simulator::Callback Simulator::release(std::uint32_t slot) noexcept {
  // Refill the slot's heap position with the last entry bottom-up: walk
  // the hole down to a leaf along the earlier children, then sift the
  // last entry up from there. It usually belongs near the bottom, so this
  // skips the comparison against it that a plain sift-down makes per level.
  std::size_t hole = slots_[slot].heap_pos;
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (hole < size) {
    for (std::size_t child; (child = smallest_child(hole, size)) < size;) {
      place(hole, heap_[child]);
      hole = child;
    }
    heap_[hole] = last;
    sift_up(hole);
  }
  slots_[slot].heap_pos = kNotQueued;
  free_.push_back(slot);
  // Callback's move constructor leaves the slot disengaged.
  return std::move(callbacks_[slot]);
}

void Simulator::place(std::size_t pos, const Entry& entry) noexcept {
  heap_[pos] = entry;
  slots_[key_slot(entry.key)].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::sift_up(std::size_t pos) noexcept {
  const Entry moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(moving < heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, moving);
}

std::size_t Simulator::smallest_child(std::size_t pos,
                                      std::size_t size) const noexcept {
  const std::size_t child = 2 * pos + 1;
  if (child >= size) return size;
  if (child + 1 == size) return child;
  return child + static_cast<std::size_t>(heap_[child + 1] < heap_[child]);
}

void Simulator::sift_down(std::size_t pos) noexcept {
  const Entry moving = heap_[pos];
  const std::size_t size = heap_.size();
  for (std::size_t child;
       (child = smallest_child(pos, size)) < size && heap_[child] < moving;) {
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, moving);
}

void Simulator::sift(std::size_t pos) noexcept {
  if (pos > 0 && heap_[pos] < heap_[(pos - 1) / 2]) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

EventId Simulator::schedule_at(double t, Callback fn, const void* prefetch) {
  CM_EXPECTS(t >= now_);
  CM_EXPECTS(fn != nullptr);
  const std::uint64_t key =
      acquire(std::move(fn), reinterpret_cast<std::uintptr_t>(prefetch));
  heap_.push_back(Entry{t, key});
  sift_up(heap_.size() - 1);
  const std::uint32_t slot = key_slot(key);
  return make_id(slot, slots_[slot].generation);
}

EventId Simulator::schedule_in(double delay, Callback fn,
                               const void* prefetch) {
  CM_EXPECTS(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(fn), prefetch);
}

std::vector<EventId> Simulator::schedule_bulk(
    std::vector<std::pair<double, Callback>> batch) {
  if (batch.empty()) return {};
  for (const auto& [t, fn] : batch) {
    CM_EXPECTS(t >= now_);
    CM_EXPECTS(fn != nullptr);
  }
  std::vector<EventId> ids;
  ids.reserve(batch.size());
  const std::size_t old_size = heap_.size();
  heap_.reserve(old_size + batch.size());
  for (auto& [t, fn] : batch) {
    const std::uint64_t key = acquire(std::move(fn), 0);
    heap_.push_back(Entry{t, key});
    const std::uint32_t slot = key_slot(key);
    slots_[slot].heap_pos = static_cast<std::uint32_t>(heap_.size() - 1);
    ids.push_back(make_id(slot, slots_[slot].generation));
  }
  // Heapify beats per-entry sift-up once the batch rivals the pending set:
  // Floyd's bottom-up build is O(total), the loop O(batch · log total).
  // Either way every sift keeps the slots' heap positions current.
  if (batch.size() >= heap_.size() / 4) {
    for (std::size_t pos = heap_.size() / 2; pos-- > 0;) sift_down(pos);
  } else {
    for (std::size_t pos = old_size; pos < heap_.size(); ++pos) sift_up(pos);
  }
  return ids;
}

bool Simulator::cancel(EventId id) noexcept {
  if (!is_pending(id)) return false;
  // The callback is destroyed on return, once the queue is consistent
  // again (its captures may own state that re-enters the simulator).
  (void)release(slot_of(id));
  return true;
}

void Simulator::retime(EventId id, double t) {
  CM_EXPECTS(t >= now_);
  CM_EXPECTS(is_pending(id));
  const std::uint32_t slot = slot_of(id);
  const std::size_t pos = slots_[slot].heap_pos;
  heap_[pos] = Entry{t, detail::heap_key(next_seq_, slot)};
  ++next_seq_;
  sift(pos);
}

void Simulator::pop_and_run() {
  const Entry top = heap_.front();
  Callback fn = release(key_slot(top.key));
  // Load the next event's lines while this one runs. A prefetch never
  // faults, so a hint to freed or reused memory is harmless.
  if (!heap_.empty()) {
    const std::uint32_t next = key_slot(heap_.front().key);
    __builtin_prefetch(&callbacks_[next]);
    if (prefetch_[next] != 0) {
      __builtin_prefetch(reinterpret_cast<const void*>(prefetch_[next]));
    }
  }
  now_ = top.time;
  ++processed_;
  fn();
}

void Simulator::run_until(double t) {
  CM_EXPECTS(t >= now_);
  while (!heap_.empty() && heap_.front().time <= t) pop_and_run();
  now_ = t;
}

std::size_t Simulator::run_all(std::size_t max_events) {
  std::size_t n = 0;
  for (; n < max_events && !heap_.empty(); ++n) pop_and_run();
  return n;
}

void Simulator::schedule_periodic(double start, double interval,
                                  std::function<void(double)> fn) {
  CM_EXPECTS(interval > 0.0);
  CM_EXPECTS(start >= now_);
  CM_EXPECTS(fn != nullptr);
  Periodic& task = periodics_.emplace_back(Periodic{interval, std::move(fn)});
  schedule_at(start, [this, &task, start] { fire(task, start); });
}

void Simulator::fire(Periodic& task, double t) {
  task.fn(t);
  const double next = t + task.interval;
  schedule_at(next, [this, &task, next] { fire(task, next); });
}

}  // namespace cloudmedia::sim
