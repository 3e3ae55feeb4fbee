#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
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

TEST(Simulator, PeriodicCancelStops) {
  Simulator sim;
  int count = 0;
  Simulator::PeriodicHandle handle =
      sim.schedule_periodic(1.0, 1.0, [&](double) { ++count; });
  sim.run_until(3.5);
  EXPECT_EQ(count, 3);
  handle.cancel();
  EXPECT_FALSE(handle.active());
  sim.run_until(10.0);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PeriodicCancelFromInsideCallback) {
  Simulator sim;
  int count = 0;
  Simulator::PeriodicHandle handle;
  handle = sim.schedule_periodic(1.0, 1.0, [&](double) {
    if (++count == 2) handle.cancel();
  });
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
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

TEST(Simulator, CallbackExceptionPropagates) {
  Simulator sim;
  sim.schedule_at(1.0, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sim.run_until(2.0), std::runtime_error);
}

}  // namespace
}  // namespace cloudmedia::sim
