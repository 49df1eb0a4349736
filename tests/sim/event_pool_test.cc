/**
 * @file
 * Tests for the event core: component-owned timers (arming,
 * disarming, tie order, lifetime against the queue), a randomized
 * differential fuzz against a naive pop-then-dispatch reference queue
 * (self-re-arming timers and the views their targets see), a callback that
 * grows the slot table from inside its own dispatch, and the
 * zero-allocation guarantee of the steady-state schedule path.
 */

#include "sim/event_queue.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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

/** What a queue looks like from inside a target. */
struct View
{
    std::uint64_t pending = 0;
    bool empty = true;
    bool has_next = false;
    Tick next_when = 0;
    int next_priority = 0;
    std::uint64_t next_seq = 0; ///< counted from the first schedule
    std::uint64_t peak_pending = 0;
    std::uint64_t executed = 0;

    bool operator==(const View &) const = default;
};

/**
 * What a fuzz timer's target does, in this order: record the view,
 * disarm timer @ref disarm (if >= 0), schedule a same-tick event at a
 * priority number below its own when @ref lower_first (that key sorts
 * below the firing timer's spent one), re-arm itself @ref rearm_in
 * ticks on (if >= 0, at most @ref budget times), record the view
 * again.
 */
struct Script
{
    int disarm = -1;
    bool lower_first = false;
    int rearm_in = -1;
    int budget = 0;
};

/** Run @p k's script on either side of the fuzz (see Script). */
template <class Side>
void
react(Side &side, std::vector<Script> &scripts, int k)
{
    Script &sc = scripts[static_cast<std::size_t>(k)];
    side.views.push_back(side.view());
    if (sc.disarm >= 0)
        side.disarm(sc.disarm);
    if (sc.lower_first)
        side.schedule(side.now(), side.priority(k) - 1);
    if (sc.rearm_in >= 0 && sc.budget > 0) {
        --sc.budget;
        side.arm(k, side.now() + sc.rearm_in);
    }
    side.views.push_back(side.view());
}

/**
 * The pre-pool implementation's order with pop-then-dispatch: a flat
 * list of (when, priority, seq) entries, the smallest popped before
 * its target runs — the dispatch-order and view oracle.
 */
class NaiveQueue
{
  public:
    std::vector<int> got;
    std::vector<View> views;
    /** Dispatches whose key sorts below the previous one's. */
    std::uint64_t out_of_order = 0;

    explicit NaiveQueue(std::vector<Script> scripts,
                        std::vector<int> priorities)
        : scripts_(std::move(scripts)), pri_(std::move(priorities)),
          timer_id_(pri_.size(), -1)
    {}

    Tick now() const { return now_; }
    int priority(int k) const { return pri_[static_cast<std::size_t>(k)]; }

    bool
    armed(int k) const
    {
        return timer_id_[static_cast<std::size_t>(k)] >= 0;
    }

    void schedule(Tick when, int pri) { push(when, pri, -1); }

    void
    arm(int k, Tick when)
    {
        timer_id_[static_cast<std::size_t>(k)] = push(when, priority(k), k);
    }

    void
    disarm(int k)
    {
        int &id = timer_id_[static_cast<std::size_t>(k)];
        std::erase_if(evs_, [id](const Ev &e) { return e.id == id; });
        id = -1;
    }

    View
    view() const
    {
        View v;
        v.pending = evs_.size();
        v.empty = evs_.empty();
        if (!evs_.empty()) {
            const Ev &e = *std::min_element(evs_.begin(), evs_.end());
            v.has_next = true;
            v.next_when = e.when;
            v.next_priority = e.pri;
            v.next_seq = e.seq;
        }
        v.peak_pending = peak_;
        v.executed = executed_;
        return v;
    }

    void
    runAll()
    {
        while (!evs_.empty()) {
            const auto it = std::min_element(evs_.begin(), evs_.end());
            const Ev e = *it;
            evs_.erase(it);
            if (executed_ > 0 && e < last_)
                ++out_of_order;
            last_ = e;
            now_ = e.when;
            ++executed_;
            got.push_back(e.id);
            if (e.timer >= 0) {
                timer_id_[static_cast<std::size_t>(e.timer)] = -1;
                react(*this, scripts_, e.timer);
            }
        }
    }

  private:
    struct Ev
    {
        Tick when;
        int pri;
        std::uint64_t seq;
        int id;
        int timer; ///< -1 for a plain event

        bool
        operator<(const Ev &o) const
        {
            return std::tie(when, pri, seq) < std::tie(o.when, o.pri, o.seq);
        }
    };

    int
    push(Tick when, int pri, int timer)
    {
        const int id = next_id_++;
        evs_.push_back(Ev{when, pri, seq_++, id, timer});
        peak_ = std::max<std::uint64_t>(peak_, evs_.size());
        return id;
    }

    std::vector<Script> scripts_;
    std::vector<int> pri_;
    std::vector<int> timer_id_; ///< pending occurrence's id, or -1
    std::vector<Ev> evs_;
    Ev last_{};
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t peak_ = 0;
    std::uint64_t executed_ = 0;
    int next_id_ = 0;
};

/** The same calls on a real EventQueue, each timer's target running
 * its script. */
class RealSide
{
  public:
    EventQueue eq;
    std::vector<int> got;
    std::vector<View> views;

    RealSide(std::vector<Script> scripts, const std::vector<int> &pri)
        : scripts_(std::move(scripts))
    {
        for (std::size_t k = 0; k < pri.size(); ++k)
            timers_.push_back(std::unique_ptr<FuzzTimer>(
                new FuzzTimer{this, static_cast<int>(k), pri[k]}));
    }

    Tick now() const { return eq.now(); }
    int priority(int k) const { return timer(k).priority; }
    bool armed(int k) const { return timer(k).timer.armed(); }

    void
    schedule(Tick when, int pri)
    {
        const int id = next_id_++;
        eq.schedule(when, [this, id] { got.push_back(id); }, pri);
    }

    void
    arm(int k, Tick when)
    {
        timer(k).id = next_id_++;
        eq.arm(timer(k).timer, when);
    }

    void disarm(int k) { eq.disarm(timer(k).timer); }

    View
    view() const
    {
        View v;
        v.pending = eq.pending();
        v.empty = eq.empty();
        EventQueue::NextEvent next;
        v.has_next = eq.peekNext(next);
        if (v.has_next) {
            v.next_when = next.when;
            v.next_priority = next.priority;
            v.next_seq = next.seq - EventQueue::kMessageSeqLimit;
        }
        const auto s = eq.stats();
        EXPECT_EQ(s.pending, v.pending);
        v.peak_pending = s.peak_pending;
        v.executed = s.executed;
        return v;
    }

  private:
    struct FuzzTimer
    {
        RealSide *side;
        int k;
        int priority;
        int id = -1;
        EventQueue::Timer timer{
            [](void *self) {
                auto *t = static_cast<FuzzTimer *>(self);
                t->side->got.push_back(t->id);
                react(*t->side, t->side->scripts_, t->k);
            },
            this, priority};
    };

    FuzzTimer &timer(int k) { return *timers_[static_cast<std::size_t>(k)]; }

    const FuzzTimer &
    timer(int k) const
    {
        return *timers_[static_cast<std::size_t>(k)];
    }

    std::vector<Script> scripts_;
    std::vector<std::unique_ptr<FuzzTimer>> timers_;
    int next_id_ = 0;
};

TEST(EventPoolFuzz, RandomScheduleCancelMatchesReference)
{
    // Timers join the stream at their own fixed priorities; the
    // reference schedules each arm as a plain entry at that priority
    // and erases it when the timer is disarmed. Half the timers' targets
    // re-arm themselves, which the queue does in place (the hold); some
    // of those first schedule a same-tick event that sorts below the
    // held entry, and some disarm another timer. Every target records
    // the queue's views before and after, which must read as if its
    // entry had been popped before the call.
    check::ScopedCapture cap;
    Rng rng(0xfeedu);
    std::uint64_t holds = 0;
    std::uint64_t out_of_order = 0;
    for (int round = 0; round < 40; ++round) {
        constexpr int kTimers = 16;
        std::vector<int> pri;
        std::vector<Script> scripts;
        for (int k = 0; k < kTimers; ++k) {
            pri.push_back(static_cast<int>(rng.uniformInt(0, 5)) - 2);
            Script sc;
            if (rng.uniformInt(0, 1) == 0) {
                sc.rearm_in = static_cast<int>(rng.uniformInt(0, 6));
                sc.budget = 1 + static_cast<int>(rng.uniformInt(0, 3));
                sc.lower_first = rng.uniformInt(0, 3) == 0;
            }
            if (rng.uniformInt(0, 4) == 0)
                sc.disarm = static_cast<int>(
                    (k + 1 + rng.uniformInt(0, kTimers - 2)) % kTimers);
            holds += sc.rearm_in >= 0 ? 1 : 0;
            scripts.push_back(sc);
        }
        RealSide real(scripts, pri);
        NaiveQueue ref(scripts, pri);

        const int n = 50 + static_cast<int>(rng.uniformInt(0, 150));
        std::uint64_t events = 0;
        for (int i = 0; i < n; ++i) {
            const Tick when = static_cast<Tick>(rng.uniformInt(0, 50));
            const int k = static_cast<int>(rng.uniformInt(0, kTimers - 1));
            if (rng.uniformInt(0, 3) == 0 && !real.armed(k)) {
                ref.arm(k, when);
                real.arm(k, when);
                continue;
            }
            const int p = static_cast<int>(rng.uniformInt(0, 5)) - 2;
            ref.schedule(when, p);
            real.schedule(when, p);
            ++events;
            // Occasionally disarm a random timer (a no-op on both
            // sides when it is not armed).
            if (rng.uniformInt(0, 4) == 0) {
                const int d =
                    static_cast<int>(rng.uniformInt(0, kTimers - 1));
                ref.disarm(d);
                real.disarm(d);
            }
        }
        // Disarmed timers left the heap: only events and armed timers
        // are pending.
        std::uint64_t armed = 0;
        for (int k = 0; k < kTimers; ++k)
            armed += real.armed(k) ? 1 : 0;
        EXPECT_EQ(real.eq.pending(), events + armed);
        EXPECT_EQ(real.view(), ref.view());

        real.eq.runAll();
        ref.runAll();
        EXPECT_EQ(real.got, ref.got) << "round " << round;
        EXPECT_TRUE(real.views == ref.views) << "round " << round;
        EXPECT_EQ(real.view(), ref.view()) << "round " << round;
        out_of_order += ref.out_of_order;
    }
    EXPECT_GT(holds, 0u);
    // A same-tick event below the firing timer's key dispatches out of
    // order in both queues; JetSan reports each one and nothing else.
    EXPECT_GT(out_of_order, 0u);
    EXPECT_EQ(cap.count(check::Invariant::Causality), out_of_order);
    EXPECT_EQ(cap.total(), out_of_order);
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
