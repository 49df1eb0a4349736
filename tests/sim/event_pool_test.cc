/**
 * @file
 * Tests for the event core: component-owned timers (arming,
 * disarming, tie order, lifetime against the queue), a randomized
 * differential fuzz against a naive reference queue, a callback that
 * grows the slot table from inside its own dispatch, and the
 * zero-allocation guarantee of the steady-state schedule path.
 */

#include "sim/event_queue.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "check/reporter.hh"
#include "sim/rng.hh"
#include "support/alloc_count.hh"


namespace jetsim::sim {
namespace {

// ------------------------------------------------------------ timers

/** Owns a timer whose target appends the probe's current id. */
struct Probe
{
    std::vector<int> *out;
    int id;
    int priority = EventQueue::kPriDefault;
    EventQueue::Timer timer{[](void *self) {
                                auto *p = static_cast<Probe *>(self);
                                p->out->push_back(p->id);
                            },
                            this, priority};
};

/** Records each tie set's size and takes alternative @p pick (or the
 * last one when fewer are offered). */
struct RecordingChooser final : Chooser
{
    int pick = 0;
    std::vector<int> sizes;

    int
    choose(ChoiceKind kind, const std::int64_t *, int n) override
    {
        EXPECT_EQ(kind, ChoiceKind::EventTie);
        sizes.push_back(n);
        return pick < n ? pick : n - 1;
    }
};

TEST(EventQueueTimer, DispatchesWhereAScheduleWouldHave)
{
    EventQueue eq;
    std::vector<int> order;
    Probe probe{&order, 1};
    eq.schedule(10, [&] { order.push_back(0); });
    eq.arm(probe.timer, 10);
    eq.schedule(10, [&] { order.push_back(2); });
    EXPECT_TRUE(probe.timer.armed());
    EXPECT_EQ(eq.runAll(), 3u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_FALSE(probe.timer.armed());
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueueTimer, ArmInChecksAndSaturatesLikeScheduleIn)
{
    EventQueue eq;
    std::vector<int> order;
    Probe far{&order, 1};
    Probe past{&order, 3};
    eq.schedule(100, [] {});
    eq.runOne(); // now() == 100
    eq.scheduleIn(kTickMax, [&] { order.push_back(0); });
    eq.armIn(far.timer, kTickMax);
    {
        check::ScopedCapture cap;
        eq.scheduleIn(-5, [&] { order.push_back(2); });
        eq.armIn(past.timer, -5);
        EXPECT_EQ(cap.count(check::Invariant::Causality), 2u);
    }
    // Both negative delays clamp to now(), in arm order.
    EXPECT_EQ(eq.runUntil(100), 2u);
    EXPECT_EQ(order, (std::vector<int>{2, 3}));
    // Both saturated delays land on kTickMax, in arm order.
    EventQueue::NextEvent next;
    ASSERT_TRUE(eq.peekNext(next));
    EXPECT_EQ(next.when, kTickMax);
    EXPECT_EQ(eq.runAll(), 2u);
    EXPECT_EQ(order, (std::vector<int>{2, 3, 0, 1}));
    EXPECT_EQ(eq.now(), kTickMax);
}

TEST(EventQueueTimer, ArmingIntoThePastIsDetected)
{
    EventQueue eq;
    std::vector<int> order;
    Probe probe{&order, 0};
    eq.schedule(100, [] {});
    eq.runOne();
    {
        check::ScopedCapture cap;
        eq.arm(probe.timer, 50);
        EXPECT_EQ(cap.count(check::Invariant::Causality), 1u);
    }
    // Log-mode sanitisation clamps the occurrence to now().
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.now(), 100);
    EXPECT_EQ(order, (std::vector<int>{0}));
}

TEST(EventQueueTimer, JoinsTheChoosersTieSet)
{
    for (int pick = 0; pick < 3; ++pick) {
        EventQueue eq;
        RecordingChooser chooser;
        chooser.pick = pick;
        eq.setChooser(&chooser);
        std::vector<int> order;
        Probe probe{&order, 1};
        eq.schedule(10, [&] { order.push_back(0); });
        eq.arm(probe.timer, 10);
        eq.schedule(10, [&] { order.push_back(2); });
        eq.schedule(11, [&] { order.push_back(3); });
        eq.runAll();
        eq.setChooser(nullptr);
        // Two events and the timer tie on (10, default priority):
        // three alternatives, then the two left over.
        EXPECT_EQ(chooser.sizes, (std::vector<int>{3, 2}));
        ASSERT_EQ(order.size(), 4u);
        EXPECT_EQ(order[0], pick);
        EXPECT_EQ(order[3], 3);
    }
}

TEST(EventQueueTimer, CountsAsPending)
{
    EventQueue eq;
    std::vector<int> order;
    Probe a{&order, 0};
    Probe b{&order, 1};
    EXPECT_TRUE(eq.empty());
    eq.arm(a.timer, 5);
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.pending(), 1u);
    eq.schedule(6, [] {});
    eq.arm(b.timer, 7);
    auto s = eq.stats();
    EXPECT_EQ(s.pending, 3u);
    EXPECT_EQ(s.peak_pending, 3u);

    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(eq.runAll(), 2u);
    EXPECT_TRUE(eq.empty());
    s = eq.stats();
    EXPECT_EQ(s.pending, 0u);
    EXPECT_EQ(s.peak_pending, 3u);
    EXPECT_EQ(s.executed, 3u);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueueTimer, DisarmRemovesTheOccurrence)
{
    EventQueue eq;
    std::vector<int> order;
    Probe a{&order, 0};
    Probe b{&order, 1};
    Probe c{&order, 2};
    eq.arm(a.timer, 10);
    eq.arm(b.timer, 10);
    eq.arm(c.timer, 10);
    eq.schedule(10, [&] { order.push_back(3); });
    EXPECT_EQ(eq.pending(), 4u);

    eq.disarm(a.timer);
    EXPECT_FALSE(a.timer.armed());
    EXPECT_EQ(eq.pending(), 3u);
    // Disarming an unarmed (here: already disarmed) timer is a no-op.
    eq.disarm(a.timer);
    EXPECT_EQ(eq.pending(), 3u);

    // A re-armed timer takes a fresh seq: it now runs after every
    // occurrence it ties with, including the event scheduled after
    // its first arm.
    eq.arm(a.timer, 10);
    EXPECT_EQ(eq.pending(), 4u);
    EXPECT_EQ(eq.runAll(), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0}));
    EXPECT_EQ(eq.executed(), 4u);

    // A withdrawn occurrence never runs; disarming after the
    // dispatch, when the timer is no longer armed, is a no-op too.
    order.clear();
    eq.arm(b.timer, 20);
    eq.arm(c.timer, 30);
    eq.disarm(b.timer);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.runAll(), 1u);
    eq.disarm(c.timer);
    EXPECT_EQ(order, (std::vector<int>{2}));
    EXPECT_TRUE(eq.empty());
    const auto s = eq.stats();
    EXPECT_EQ(s.pending, 0u);
    EXPECT_EQ(s.peak_pending, 4u);
    EXPECT_EQ(s.executed, 5u);
}

TEST(EventQueueTimer, QueueOutlivingAnArmedTimersOwnerTouchesNothing)
{
    std::vector<int> order;
    auto capture = std::make_shared<int>(1);
    {
        EventQueue eq;
        auto probe = std::unique_ptr<Probe>(new Probe{&order, 0});
        eq.arm(probe->timer, 10);
        eq.schedule(20, [&order, capture] { order.push_back(*capture); });
        EXPECT_EQ(capture.use_count(), 2);
        probe.reset(); // the owner dies first, its timer still armed
    } // ~EventQueue frees the event and skips the timer's entry
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(capture.use_count(), 1); // the queued capture was freed
}

// ------------------------------------------------- differential fuzz

/** The pre-pool implementation: shared_ptr events in a binary heap
 * ordered by (when, priority, seq) — the dispatch-order oracle. */
class NaiveQueue
{
  public:
    int
    schedule(Tick when, int priority)
    {
        const int id = next_id_++;
        heap_.push(Ev{when, priority, seq_++, id});
        return id;
    }

    void cancel(int id) { cancelled_.push_back(id); }

    std::vector<int>
    runAll()
    {
        std::vector<int> order;
        while (!heap_.empty()) {
            const Ev e = heap_.top();
            heap_.pop();
            bool dead = false;
            for (const int c : cancelled_)
                if (c == e.id)
                    dead = true;
            if (!dead)
                order.push_back(e.id);
        }
        return order;
    }

  private:
    struct Ev
    {
        Tick when;
        int pri;
        std::uint64_t seq;
        int id;
    };
    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.pri != b.pri)
                return a.pri > b.pri;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Ev, std::vector<Ev>, Later> heap_;
    std::vector<int> cancelled_;
    std::uint64_t seq_ = 0;
    int next_id_ = 0;
};

TEST(EventPoolFuzz, RandomScheduleCancelMatchesReference)
{
    Rng rng(0xfeedu);
    for (int round = 0; round < 20; ++round) {
        EventQueue eq;
        NaiveQueue ref;
        std::vector<int> got;

        // Timers join the stream at their own fixed priorities; the
        // oracle schedules each arm as a plain event at that priority
        // and cancels it when the timer is disarmed.
        std::vector<std::unique_ptr<Probe>> timers;
        for (int k = 0; k < 16; ++k)
            timers.push_back(std::unique_ptr<Probe>(new Probe{
                &got, -1, static_cast<int>(rng.uniformInt(0, 5)) - 2}));

        const int n = 50 + static_cast<int>(rng.uniformInt(0, 150));
        std::uint64_t events = 0;
        for (int i = 0; i < n; ++i) {
            const Tick when = static_cast<Tick>(rng.uniformInt(0, 50));
            Probe &tp = *timers[static_cast<std::size_t>(
                rng.uniformInt(0, timers.size() - 1))];
            if (rng.uniformInt(0, 3) == 0 && !tp.timer.armed()) {
                tp.id = ref.schedule(when, tp.priority);
                eq.arm(tp.timer, when);
                continue;
            }
            const int pri = static_cast<int>(rng.uniformInt(0, 5)) - 2;
            const int id = ref.schedule(when, pri);
            eq.schedule(when, [&got, id] { got.push_back(id); }, pri);
            ++events;
            // Occasionally disarm a random timer (a no-op on both
            // sides when it is not armed).
            if (rng.uniformInt(0, 4) == 0) {
                Probe &dp = *timers[static_cast<std::size_t>(
                    rng.uniformInt(0, timers.size() - 1))];
                if (dp.timer.armed())
                    ref.cancel(dp.id);
                eq.disarm(dp.timer);
            }
        }
        // Disarmed timers left the heap: only events and armed timers
        // are pending.
        std::uint64_t armed = 0;
        for (const auto &t : timers)
            armed += t->timer.armed() ? 1 : 0;
        EXPECT_EQ(eq.pending(), events + armed);
        eq.runAll();
        EXPECT_EQ(got, ref.runAll()) << "round " << round;
    }
}

// -------------------------------------------------------- slot table

TEST(EventQueueSlots, CallbackGrowingTheSlotTableKeepsItsCapture)
{
    // The running callback schedules twice the reserve, so the slot
    // table reallocates under it; only then does it read its own
    // shared_ptr capture (and its loop bound, every iteration).
    EventQueue eq;
    auto log = std::make_shared<std::vector<int>>();
    const int n = static_cast<int>(EventQueue::kReserve) * 2;
    eq.schedule(1, [&eq, log, n] {
        for (int i = 0; i < n; ++i)
            eq.schedule(2 + (n - i) % 7,
                        [log, i] { log->push_back(i); }, i % 3 - 1);
        log->push_back(-1);
    });
    EXPECT_EQ(eq.runAll(), static_cast<std::uint64_t>(n) + 1);

    // Key order: (when, priority, insertion order).
    std::vector<std::tuple<Tick, int, int>> keys;
    for (int i = 0; i < n; ++i)
        keys.emplace_back(2 + (n - i) % 7, i % 3 - 1, i);
    std::sort(keys.begin(), keys.end());
    std::vector<int> want{-1};
    for (const auto &k : keys)
        want.push_back(std::get<2>(k));
    EXPECT_EQ(*log, want);
    EXPECT_EQ(log.use_count(), 1); // every queued copy was destroyed
}

// ---------------------------------------------------- zero-allocation

TEST(EventPoolAlloc, SteadyStateSchedulePathDoesNotAllocate)
{
    EventQueue eq;
    // Pre-warm: grow the pool, heap arrays and freelist to their
    // steady-state footprint.
    for (int i = 0; i < 200; ++i)
        eq.schedule(i, [] {});
    eq.runAll();

    const auto fallbacks_before = InlineFn::heapFallbackCount();
    std::uint64_t executed = 0;
    struct Capture
    {
        std::uint64_t *counter;
        std::uint64_t pad[5]; // 48 bytes total: the SBO boundary
    };
    static_assert(sizeof(Capture) == InlineFn::kInlineSize);

    std::uint64_t allocs = 0;
    {
        const testing::AllocCount counting;
        for (int i = 0; i < 200; ++i) {
            const Capture c{&executed, {}};
            eq.scheduleIn(1, [c] { ++*c.counter; });
        }
        eq.runAll();
        allocs = counting.count();
    }

    EXPECT_EQ(executed, 200u);
    EXPECT_EQ(allocs, 0u)
        << "steady-state schedule/dispatch touched the allocator";
    EXPECT_EQ(InlineFn::heapFallbackCount(), fallbacks_before);
    EXPECT_EQ(eq.stats().sbo_misses, 0u);
}

// ------------------------------------------------------------- stats

TEST(EventQueueStats, TracksPeakPending)
{
    EventQueue eq;
    for (int i = 0; i < 600; ++i)
        eq.schedule(i, [] {});
    auto s = eq.stats();
    EXPECT_EQ(s.pending, 600u);
    EXPECT_EQ(s.peak_pending, 600u);

    eq.runAll();
    s = eq.stats();
    EXPECT_EQ(s.pending, 0u);
    EXPECT_EQ(s.peak_pending, 600u);
    EXPECT_EQ(s.executed, 600u);
}

} // namespace
} // namespace jetsim::sim
