#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/check.h"

namespace cloudmedia::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, EqualTimesFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockIsEventTimeInsideCallback) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(4.5, [&] { seen = sim.now(); });
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(seen, 4.5);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(3.0, [&] { seen = sim.now(); });
  });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Simulator, RunUntilIncludesBoundary) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(5.0, [&] { ran = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(5.1, [&] { ran = true; });
  sim.run_until(5.0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run_until(2.0);
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelInvalidIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(kInvalidEvent));
  EXPECT_FALSE(sim.cancel(999));
}

TEST(Simulator, CancelFromInsideCallback) {
  Simulator sim;
  bool second_ran = false;
  const EventId second = sim.schedule_at(2.0, [&] { second_ran = true; });
  sim.schedule_at(1.0, [&] { sim.cancel(second); });
  sim.run_until(5.0);
  EXPECT_FALSE(second_ran);
}

TEST(Simulator, EventsScheduledAtCurrentTimeRunInSameDrain) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_at(1.0, [&] { order.push_back(2); });
  });
  sim.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run_until(5.0);
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), util::PreconditionError);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), util::PreconditionError);
}

TEST(Simulator, RejectsBackwardRunUntil) {
  Simulator sim;
  sim.run_until(5.0);
  EXPECT_THROW(sim.run_until(4.0), util::PreconditionError);
}

TEST(Simulator, RunAllReturnsCountAndRespectsCap) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [] {});
  EXPECT_EQ(sim.run_all(4), 4u);
  EXPECT_EQ(sim.pending(), 6u);
  EXPECT_EQ(sim.run_all(), 6u);
  EXPECT_EQ(sim.events_processed(), 10u);
}

TEST(Simulator, PeriodicFiresAtFixedCadence) {
  Simulator sim;
  std::vector<double> fires;
  sim.schedule_periodic(10.0, 5.0, [&](double t) { fires.push_back(t); });
  sim.run_until(27.0);
  EXPECT_EQ(fires, (std::vector<double>{10.0, 15.0, 20.0, 25.0}));
}

TEST(Simulator, PeriodicKeepsFifoWithEqualTimeEvents) {
  // One-shot events at the periodic's own firing times run in scheduling
  // order around it: those scheduled before it first, then the firing, then
  // those scheduled after it. A firing schedules its successor only after
  // fn returns, so what fn schedules at the next firing time runs first.
  Simulator sim;
  std::vector<std::string> log;
  auto note = [&log](std::string entry) {
    return [&log, entry = std::move(entry)] { log.push_back(entry); };
  };
  auto at = [](double t) { return std::to_string(static_cast<int>(t)); };
  sim.schedule_at(1.0, note("before@1"));
  sim.schedule_at(2.0, note("before@2"));
  sim.schedule_periodic(1.0, 1.0, [&](double t) {
    log.push_back("tick@" + at(t));
    sim.schedule_at(t + 1.0, note("inside@" + at(t + 1.0)));
  });
  sim.schedule_at(1.0, note("after@1"));
  sim.schedule_at(2.0, note("after@2"));
  sim.run_until(2.5);
  EXPECT_EQ(log, (std::vector<std::string>{"before@1", "tick@1", "after@1",
                                           "before@2", "after@2", "inside@2",
                                           "tick@2"}));
}

TEST(Simulator, PeriodicValidatesArguments) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_periodic(0.0, 0.0, [](double) {}),
               util::PreconditionError);
  EXPECT_THROW(sim.schedule_periodic(0.0, -1.0, [](double) {}),
               util::PreconditionError);
}

TEST(Simulator, ManyInterleavedEventsKeepOrder) {
  Simulator sim;
  std::vector<double> times;
  // Schedule in scrambled order; execution must be sorted.
  for (int i = 0; i < 500; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    sim.schedule_at(t, [&times, &sim] { times.push_back(sim.now()); });
  }
  sim.run_all();
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
  EXPECT_EQ(times.size(), 500u);
}

// ------------------------------------------------- retime and slot reuse

TEST(Simulator, RetimeOrdersLikeCancelPlusScheduleAt) {
  // The same script run twice: once moving events with retime, once with
  // cancel + schedule_at. Both must fire in the same order, including
  // FIFO order against equal-time events scheduled before and after the
  // move.
  const auto script = [](bool use_retime) {
    Simulator sim;
    std::vector<int> order;
    const auto log = [&order](int tag) {
      return [&order, tag] { order.push_back(tag); };
    };
    EventId a = sim.schedule_at(5.0, log(0));
    sim.schedule_at(3.0, log(1));
    EventId b = sim.schedule_at(1.0, log(2));
    const auto move = [&](EventId& id, double t, int tag) {
      if (use_retime) {
        sim.retime(id, t);
      } else {
        EXPECT_TRUE(sim.cancel(id));
        id = sim.schedule_at(t, log(tag));
      }
    };
    move(a, 3.0, 0);               // earlier: lands behind tag 1
    sim.schedule_at(3.0, log(3));  // equal time, scheduled after the move
    move(b, 3.0, 2);               // later: lands behind tag 3
    move(a, 3.0, 0);               // same time: re-queued behind tag 2
    sim.schedule_at(2.0, [&] {     // from inside a callback
      sim.schedule_at(3.0, log(4));
      move(b, 3.0, 2);
    });
    sim.run_all();
    return order;
  };
  const std::vector<int> retimed = script(true);
  EXPECT_EQ(retimed, script(false));
  EXPECT_EQ(retimed, (std::vector<int>{1, 3, 0, 4, 2}));
}

TEST(Simulator, RetimeKeepsIdAndCallback) {
  Simulator sim;
  double fired_at = -1.0;
  const EventId id = sim.schedule_at(10.0, [&] { fired_at = sim.now(); });
  sim.retime(id, 2.5);
  sim.retime(id, 4.0);  // the same id stays valid across retimes
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, RetimeRejectsPastTimesAndDeadIds) {
  Simulator sim;
  const EventId id = sim.schedule_at(5.0, [] {});
  sim.run_until(2.0);
  EXPECT_THROW(sim.retime(id, 1.0), util::PreconditionError);
  EXPECT_THROW(sim.retime(kInvalidEvent, 3.0), util::PreconditionError);
  sim.run_all();  // id has run
  EXPECT_THROW(sim.retime(id, 6.0), util::PreconditionError);
  const EventId cancelled = sim.schedule_at(7.0, [] {});
  EXPECT_TRUE(sim.cancel(cancelled));
  EXPECT_THROW(sim.retime(cancelled, 8.0), util::PreconditionError);
}

TEST(Simulator, StaleIdMissesRecycledSlot) {
  Simulator sim;
  bool ran_second = false;
  const EventId first = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(first));
  const EventId second = sim.schedule_at(1.0, [&] { ran_second = true; });
  EXPECT_EQ(sim.callback_ring_capacity(), 1u);  // the slot was recycled
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_THROW(sim.retime(first, 3.0), util::PreconditionError);
  sim.run_all();
  EXPECT_TRUE(ran_second);  // the stale id left the new event alone

  // Same after the event ran instead of being cancelled.
  bool ran_third = false;
  sim.schedule_at(2.0, [&] { ran_third = true; });
  EXPECT_FALSE(sim.cancel(second));
  sim.run_all();
  EXPECT_TRUE(ran_third);
}

TEST(Simulator, PendingCountsExactlyTheLiveEvents) {
  // No tombstones: after any mix of schedule, cancel and retime, pending()
  // is the number of live events, and draining pops exactly that many.
  Simulator sim;
  std::vector<EventId> live;
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int step = 0; step < 2000; ++step) {
    const auto op = next() % 3;
    if (op == 0 || live.empty()) {
      live.push_back(sim.schedule_at(static_cast<double>(next() % 1000), [] {}));
    } else {
      const std::size_t k = next() % live.size();
      if (op == 1) {
        EXPECT_TRUE(sim.cancel(live[k]));
        live[k] = live.back();
        live.pop_back();
      } else {
        sim.retime(live[k], static_cast<double>(next() % 1000));
      }
    }
    ASSERT_EQ(sim.pending(), live.size());
  }
  EXPECT_EQ(sim.run_all(), live.size());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, SlabStaysAtPeakPendingAcrossChurn) {
  // One event pending far ahead (the hourly provisioning tick) while 1e5
  // short-lived events come and go: an id-indexed ring had to span every
  // id issued since the far event, so it grew to 2^17 slots here. The
  // slab only ever holds the peak pending count.
  Simulator sim;
  bool far_ran = false;
  sim.schedule_at(1e9, [&] { far_ran = true; });
  int remaining = 100000;
  std::function<void()> churn = [&] {
    if (--remaining > 0) sim.schedule_in(1.0, [&] { churn(); });
  };
  sim.schedule_at(0.0, [&] { churn(); });
  // A pool-style timer, pushed back before every step so it never fires.
  const EventId timer = sim.schedule_at(1.5, [] {});
  for (int i = 0; i < 1000; ++i) {
    sim.run_until(sim.now() + 1.0);
    sim.retime(timer, sim.now() + 1.5);
  }
  EXPECT_TRUE(sim.cancel(timer));
  sim.run_until(1e8);
  EXPECT_EQ(remaining, 0);
  EXPECT_FALSE(far_ran);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_LE(sim.callback_ring_capacity(), 3u);
}

TEST(Simulator, GenerationRefusesToWrap) {
  EXPECT_EQ(detail::next_generation(1), 2u);
  EXPECT_THROW(
      (void)detail::next_generation(std::numeric_limits<std::uint32_t>::max()),
      std::overflow_error);
}

TEST(Simulator, SequenceKeyRefusesToWrap) {
  constexpr std::uint64_t kMaxSlot =
      (std::uint64_t{1} << detail::kSlotBits) - 1;
  constexpr std::uint64_t kMaxSeq =
      (std::uint64_t{1} << (64 - detail::kSlotBits)) - 1;
  // seq sits above the slot, so keys order by seq whatever their slots.
  EXPECT_LT(detail::heap_key(1, kMaxSlot), detail::heap_key(2, 0));
  EXPECT_EQ(detail::heap_key(kMaxSeq, kMaxSlot),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW((void)detail::heap_key(kMaxSeq + 1, 0), std::overflow_error);
  EXPECT_THROW((void)detail::heap_key(0, kMaxSlot + 1), std::overflow_error);
}

TEST(Simulator, PackedKeyKeepsFifoAcrossSlotReuse) {
  // Equal-time events fire in schedule/retime order even when that order
  // disagrees with their slots: the first comes from a recycled high
  // slot, the next from a recycled low one, then a fresh slot, and last a
  // retime from a slot in between. Were the slot packed above seq, they
  // would fire in slot order instead.
  Simulator sim;
  std::vector<int> order;
  const auto log = [&order](int tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  const auto slot = [](EventId id) { return static_cast<std::uint32_t>(id); };
  const EventId low = sim.schedule_at(9.0, [] {});
  const EventId mid = sim.schedule_at(8.0, log(3));
  const EventId high = sim.schedule_at(9.0, [] {});
  ASSERT_TRUE(sim.cancel(low));
  ASSERT_TRUE(sim.cancel(high));  // LIFO: slot 2 comes back first
  const EventId first = sim.schedule_at(5.0, log(0));
  const EventId second = sim.schedule_at(5.0, log(1));
  const EventId fresh = sim.schedule_at(5.0, log(2));
  sim.retime(mid, 5.0);
  EXPECT_EQ(slot(first), 2u);
  EXPECT_EQ(slot(second), 0u);
  EXPECT_EQ(slot(fresh), 3u);
  EXPECT_EQ(slot(mid), 1u);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

/// Replay one randomized schedule/cancel/retime/bulk script, with events
/// that schedule further events as they run, and return the (time, id) of
/// every event fired. With `hints`, schedule_at/schedule_in name prefetch
/// addresses the way the vod layer does: records in a slab that is
/// reallocated now and then, so older hints point at freed memory, plus
/// addresses of freed heap objects. Cancels and firings recycle event
/// slots, so later events (bulk ones included, which carry no hint) reuse
/// slots whose earlier events had hints. The script draws the same random
/// numbers either way.
std::vector<std::pair<double, EventId>> replay_prefetch_script(bool hints) {
  Simulator sim;
  std::vector<std::pair<double, EventId>> fired;
  std::vector<EventId> ids;     // by tag
  std::vector<bool> pending;    // by tag
  std::vector<std::size_t> live;  // tags that may still be pending
  std::uint64_t state = 987654321;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<double> records(4, 0.0);
  std::vector<const void*> freed;  // addresses of released storage
  const auto hint = [&]() -> const void* {
    const auto pick = next();
    const void* address = &records[pick % records.size()];
    if (pick % 5 == 0 && !freed.empty()) address = freed[pick % freed.size()];
    return hints ? address : nullptr;
  };
  const auto churn_records = [&] {
    freed.push_back(records.data());
    records = std::vector<double>(4 + next() % 8, 0.0);  // old hints dangle
    freed.push_back(std::make_unique<double>(0.0).get());
  };

  std::function<void(double, bool)> schedule = [&](double t, bool relative) {
    const std::size_t tag = ids.size();
    ids.push_back(kInvalidEvent);
    pending.push_back(true);
    live.push_back(tag);
    Callback fn = [&, tag] {
      pending[tag] = false;
      fired.emplace_back(sim.now(), ids[tag]);
      if (next() % 3 == 0) schedule(static_cast<double>(next() % 50), true);
    };
    ids[tag] = relative ? sim.schedule_in(t, std::move(fn), hint())
                        : sim.schedule_at(t, std::move(fn), hint());
  };
  const auto random_live = [&]() -> std::size_t {
    while (!live.empty()) {
      const std::size_t k = next() % live.size();
      if (pending[live[k]]) return live[k];
      live[k] = live.back();
      live.pop_back();
    }
    return ids.size();
  };

  for (int step = 0; step < 3000; ++step) {
    switch (next() % 7) {
      case 0:
        schedule(sim.now() + static_cast<double>(next() % 200), false);
        break;
      case 1:
        schedule(static_cast<double>(next() % 200), true);
        break;
      case 2:
        if (const std::size_t tag = random_live(); tag < ids.size()) {
          EXPECT_TRUE(sim.cancel(ids[tag]));
          pending[tag] = false;
        }
        break;
      case 3:
        if (const std::size_t tag = random_live(); tag < ids.size()) {
          sim.retime(ids[tag], sim.now() + static_cast<double>(next() % 200));
        }
        break;
      case 4: {
        std::vector<std::pair<double, Callback>> batch;
        const std::size_t first = ids.size();
        const auto n = static_cast<std::size_t>(next() % 8);
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t tag = first + k;
          batch.emplace_back(sim.now() + static_cast<double>(next() % 200),
                             [&, tag] {
                               pending[tag] = false;
                               fired.emplace_back(sim.now(), ids[tag]);
                             });
        }
        ids.resize(first + n, kInvalidEvent);
        pending.resize(first + n, true);
        const std::vector<EventId> batch_ids =
            sim.schedule_bulk(std::move(batch));
        for (std::size_t k = 0; k < n; ++k) {
          ids[first + k] = batch_ids[k];
          live.push_back(first + k);
        }
        break;
      }
      case 5:
        sim.run_until(sim.now() + static_cast<double>(next() % 30));
        break;
      default:
        churn_records();
        break;
    }
  }
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
  return fired;
}

TEST(Simulator, PrefetchHintDoesNotChangeOrder) {
  // A prefetch hint is an address handed to a prefetch instruction, never
  // read: hints to live, freed and recycled memory must leave the firing
  // sequence exactly as it is without hints.
  const auto plain = replay_prefetch_script(false);
  const auto hinted = replay_prefetch_script(true);
  EXPECT_GT(plain.size(), 1000u);
  EXPECT_EQ(hinted, plain);
}

TEST(Simulator, CallbackExceptionPropagates) {
  Simulator sim;
  sim.schedule_at(1.0, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sim.run_until(2.0), std::runtime_error);
}

}  // namespace
}  // namespace cloudmedia::sim
