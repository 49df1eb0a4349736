/**
 * @file
 * JetSan causality invariant: violation injection against the event
 * queue, plus regression coverage for the comparator's tie-breaking
 * contract (equal-timestamp events dispatch in priority then
 * insertion order, deterministically).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/reporter.hh"
#include "sim/event_queue.hh"

namespace jetsim {
namespace {

using check::Invariant;
using check::ScopedCapture;
using check::Severity;

TEST(CausalityInjection, SchedulingIntoThePastIsDetected)
{
    sim::EventQueue eq;
    eq.schedule(100, [] {});
    eq.runOne(); // now() == 100

    ScopedCapture cap;
    eq.schedule(50, [] {}); // deliberately in the past

    ASSERT_EQ(cap.count(Invariant::Causality), 1u);
    const auto &v = cap.violations().front();
    EXPECT_EQ(v.severity, Severity::Error);
    EXPECT_EQ(v.component, "sim.event_queue");
    EXPECT_EQ(v.sim_time, 100);

    // Log-mode sanitisation clamps the event to now(): it still runs.
    bool ran = false;
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.now(), 100);
    (void)ran;
}

TEST(CausalityInjection, NegativeDelayIsDetected)
{
    sim::EventQueue eq;
    ScopedCapture cap;
    eq.scheduleIn(-5, [] {});
    EXPECT_EQ(cap.count(Invariant::Causality), 1u);
}

TEST(CausalityInjection, PastHorizonIsDetected)
{
    sim::EventQueue eq;
    eq.schedule(100, [] {});
    eq.runOne();

    ScopedCapture cap;
    eq.runUntil(10); // horizon before now()
    EXPECT_EQ(cap.count(Invariant::Causality), 1u);
    EXPECT_EQ(eq.now(), 100); // time did not go backwards
}

TEST(CausalityClean, CleanRunReportsNothing)
{
    ScopedCapture cap;
    sim::EventQueue eq;
    for (int i = 0; i < 100; ++i)
        eq.scheduleIn(i * 7 % 13, [] {});
    eq.runAll();
    EXPECT_EQ(cap.total(), 0u);
}

// --- comparator tie-breaking regressions -------------------------------

TEST(Comparator, EqualTimestampsDispatchInInsertionOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 32; ++i)
        eq.schedule(500, [&order, i] { order.push_back(i); });

    ScopedCapture cap;
    eq.runAll();

    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(order[i], i) << "insertion order broken at " << i;
    EXPECT_EQ(cap.total(), 0u);
}

TEST(Comparator, PriorityBeatsInsertionOrderAtEqualTimestamps)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(0); },
                sim::EventQueue::kPriSample);
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(10, [&] { order.push_back(2); },
                sim::EventQueue::kPriSample);
    eq.schedule(10, [&] { order.push_back(3); });

    ScopedCapture cap;
    eq.runAll();

    // Default-priority events first (in insertion order), then the
    // samplers (in insertion order).
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2}));
    EXPECT_EQ(cap.total(), 0u);
}

TEST(Comparator, CancellationPreservesTieOrder)
{
    // 16 same-tick timers; disarming the odd ones removes entries
    // from the middle of the heap, and the survivors must still leave
    // in arm order.
    struct Mark
    {
        std::vector<int> *order;
        int id;
        sim::EventQueue::Timer timer{
            [](void *self) {
                auto *t = static_cast<Mark *>(self);
                t->order->push_back(t->id);
            },
            this};
    };
    sim::EventQueue eq;
    std::vector<int> order;
    std::vector<std::unique_ptr<Mark>> timers;
    for (int i = 0; i < 16; ++i) {
        timers.push_back(std::unique_ptr<Mark>(new Mark{&order, i}));
        eq.arm(timers.back()->timer, 42);
    }
    for (int i = 1; i < 16; i += 2)
        eq.disarm(timers[i]->timer);

    ScopedCapture cap;
    eq.runAll();

    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], static_cast<int>(2 * i));
    EXPECT_EQ(cap.total(), 0u);
}

TEST(Comparator, SameTickReschedulingKeepsCausalOrder)
{
    // An event that schedules more work at its own tick: the new
    // events must run after it, in their own insertion order, and
    // the dispatch-order checker must stay quiet.
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(7, [&] {
        order.push_back(0);
        eq.schedule(7, [&] { order.push_back(2); });
        eq.schedule(7, [&] { order.push_back(3); });
    });
    eq.schedule(7, [&] { order.push_back(1); });

    ScopedCapture cap;
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(cap.total(), 0u);
}

TEST(Comparator, RunUntilRepushKeepsOrder)
{
    // runUntil() pops and re-pushes the first not-yet-due event; the
    // re-push must not perturb tie-breaking among its peers.
    sim::EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });

    ScopedCapture cap;
    eq.runUntil(50); // touches the heap but runs nothing
    EXPECT_TRUE(order.empty());
    eq.runAll();
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(cap.total(), 0u);
}

} // namespace
} // namespace jetsim
