/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include "sim/event_queue.hh"

#include <gtest/gtest.h>

#include <vector>

namespace jetsim::sim {
namespace {

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunOneAdvancesTime)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(100, [&] { ran = true; });
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.runOne());
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.now(), 100);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300);
}

TEST(EventQueue, SameTickUsesPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] { order.push_back(1); }, 0);
    eq.schedule(50, [&] { order.push_back(2); }, 0);
    eq.schedule(50, [&] { order.push_back(0); }, -5);
    eq.schedule(50, [&] { order.push_back(3); },
                EventQueue::kPriSample);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = -1;
    eq.schedule(10, [&] {});
    eq.runOne();
    eq.scheduleIn(5, [&] { seen = eq.now(); });
    eq.runOne();
    EXPECT_EQ(seen, 15);
}

/** Sets *ran when its timer fires. */
struct Flag
{
    bool *ran;
    EventQueue::Timer timer{
        [](void *self) { *static_cast<Flag *>(self)->ran = true; }, this};
};

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    Flag f{&ran};
    eq.arm(f.timer, 10);
    EXPECT_TRUE(f.timer.armed());
    eq.disarm(f.timer);
    EXPECT_FALSE(f.timer.armed());
    eq.runAll();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterRun)
{
    EventQueue eq;
    bool ran = false;
    Flag f{&ran};
    eq.arm(f.timer, 10);
    eq.runAll();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(f.timer.armed());
    eq.disarm(f.timer); // no effect, no crash
    EXPECT_TRUE(eq.empty());
    bool never = false;
    Flag inert{&never};
    EXPECT_FALSE(inert.timer.armed());
    eq.disarm(inert.timer);
    eq.disarm(inert.timer);
    EXPECT_FALSE(never);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, PendingCountExcludesCancelled)
{
    EventQueue eq;
    bool ran = false;
    Flag a{&ran};
    eq.arm(a.timer, 10);
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.disarm(a.timer);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunUntilStopsAtHorizon)
{
    EventQueue eq;
    std::vector<Tick> seen;
    for (Tick t : {10, 20, 30, 40})
        eq.schedule(t, [&, t] { seen.push_back(t); });
    EXPECT_EQ(eq.runUntil(25), 2u);
    EXPECT_EQ(seen, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(eq.now(), 25);
    EXPECT_EQ(eq.pending(), 2u);
}

TEST(EventQueue, RunUntilIncludesEventsAtHorizon)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(25, [&] { ++ran; });
    eq.runUntil(25);
    EXPECT_EQ(ran, 1);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleIn(10, chain);
    };
    eq.scheduleIn(10, chain);
    eq.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 50);
}

TEST(EventQueue, RunAllHonoursEventBudget)
{
    EventQueue eq;
    std::function<void()> forever = [&] { eq.scheduleIn(1, forever); };
    eq.scheduleIn(1, forever);
    EXPECT_EQ(eq.runAll(100), 100u);
}

TEST(EventQueue, ExecutedCounterAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.runAll();
    EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueue, ZeroDelayEventRunsAtCurrentTick)
{
    EventQueue eq;
    eq.schedule(42, [] {});
    eq.runOne();
    Tick seen = -1;
    eq.scheduleIn(0, [&] { seen = eq.now(); });
    eq.runOne();
    EXPECT_EQ(seen, 42);
}

} // namespace
} // namespace jetsim::sim
