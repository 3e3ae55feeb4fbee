#include "sim/simulator.h"

#include <functional>
#include <limits>
#include <stdexcept>
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

bool Simulator::is_pending(EventId id) const noexcept {
  const std::uint32_t slot = slot_of(id);
  return slot < slots_.size() && slots_[slot].heap_pos != kNotQueued &&
         slots_[slot].generation == generation_of(id);
}

std::uint32_t Simulator::acquire(Callback&& fn) {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    // Bump before popping: an overflow leaves the free list intact.
    slots_[slot].generation = detail::next_generation(slots_[slot].generation);
    free_.pop_back();
    callbacks_[slot] = std::move(fn);
    return slot;
  }
  CM_EXPECTS(slots_.size() < kNotQueued);
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(SlotState{1, kNotQueued});
  callbacks_.push_back(std::move(fn));
  // release() pushes onto free_ from noexcept paths, so keep room for
  // every slot up front; this allocates only when the slab grows.
  free_.reserve(slots_.capacity());
  return slot;
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
  slots_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
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
  return child + 1 < size && heap_[child + 1] < heap_[child] ? child + 1
                                                             : child;
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

EventId Simulator::schedule_at(double t, Callback fn) {
  CM_EXPECTS(t >= now_);
  CM_EXPECTS(fn != nullptr);
  const std::uint32_t slot = acquire(std::move(fn));
  heap_.push_back(Entry{t, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  return make_id(slot, slots_[slot].generation);
}

EventId Simulator::schedule_in(double delay, Callback fn) {
  CM_EXPECTS(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(fn));
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
    const std::uint32_t slot = acquire(std::move(fn));
    heap_.push_back(Entry{t, next_seq_++, slot});
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
  const std::size_t pos = slots_[slot_of(id)].heap_pos;
  heap_[pos].time = t;
  heap_[pos].seq = next_seq_++;
  sift(pos);
}

void Simulator::pop_and_run() {
  const Entry top = heap_.front();
  Callback fn = release(top.slot);
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

Simulator::PeriodicHandle Simulator::schedule_periodic(
    double start, double interval, std::function<void(double)> fn) {
  CM_EXPECTS(interval > 0.0);
  CM_EXPECTS(start >= now_);
  CM_EXPECTS(fn != nullptr);
  auto active = std::make_shared<bool>(true);
  // Self-rescheduling closure; the shared flag decouples cancellation from
  // the (changing) per-firing event id. The closure must hold itself only
  // weakly — a strong self-capture is a shared_ptr cycle that outlives the
  // simulator and leaks every periodic task ever scheduled. Ownership lives
  // in the pending event's callback: while a firing is queued (or running)
  // the lock() below succeeds, and when the last pending event is dropped
  // the whole closure chain is freed.
  auto tick = std::make_shared<std::function<void(double)>>();
  std::weak_ptr<std::function<void(double)>> weak_tick = tick;
  *tick = [this, active, interval, fn = std::move(fn),
           weak_tick](double fire_time) {
    if (!*active) return;
    fn(fire_time);
    if (!*active) return;
    const double next = fire_time + interval;
    if (auto self = weak_tick.lock()) {
      schedule_at(next, [self, next] { (*self)(next); });
    }
  };
  schedule_at(start, [tick, start] { (*tick)(start); });
  return PeriodicHandle(std::move(active));
}

}  // namespace cloudmedia::sim
