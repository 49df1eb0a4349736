/**
 * @file
 * Tests for the pooled event core: handle lifetime across slot reuse
 * and queue destruction, cancellation edge cases, a randomized
 * differential fuzz against a naive reference queue, and the
 * zero-allocation guarantee of the steady-state schedule path.
 */

#include "sim/event_pool.hh"
#include "sim/event_queue.hh"

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "sim/rng.hh"
#include "support/alloc_count.hh"


namespace jetsim::sim {
namespace {

// ---------------------------------------------------- handle lifetime

TEST(EventPoolHandle, CancelAfterFireIsInert)
{
    EventQueue eq;
    int runs = 0;
    auto h = eq.schedule(10, [&] { ++runs; });
    EXPECT_TRUE(h.pending());
    eq.runAll();
    EXPECT_EQ(runs, 1);
    EXPECT_FALSE(h.pending());
    h.cancel(); // no-op: already executed
    EXPECT_EQ(eq.stats().cancelled, 0u);
}

TEST(EventPoolHandle, DoubleCancelCountsOnce)
{
    EventQueue eq;
    auto h = eq.schedule(10, [] {});
    h.cancel();
    h.cancel();
    EXPECT_FALSE(h.pending());
    EXPECT_EQ(eq.stats().cancelled, 1u);
    EXPECT_EQ(eq.runAll(), 0u);
}

TEST(EventPoolHandle, HandleOutlivesQueue)
{
    EventQueue::Handle h;
    {
        EventQueue eq;
        h = eq.schedule(10, [] {});
        EXPECT_TRUE(h.pending());
    }
    // The queue (and its pool) are gone; the shared liveness block
    // keeps the handle safe and inert.
    EXPECT_FALSE(h.pending());
    h.cancel();
}

TEST(EventPoolHandle, SlotReuseDoesNotResurrectOldHandle)
{
    EventQueue eq;
    auto h1 = eq.schedule(10, [] {});
    eq.runAll(); // slot recycled onto the freelist
    EXPECT_FALSE(h1.pending());

    // The next event reuses the slot (LIFO freelist); the stale
    // handle's generation no longer matches, so it must neither
    // report pending nor cancel the new occupant (ABA hazard).
    int runs2 = 0;
    auto h2 = eq.schedule(20, [&] { ++runs2; });
    EXPECT_FALSE(h1.pending());
    h1.cancel();
    EXPECT_TRUE(h2.pending());
    eq.runAll();
    EXPECT_EQ(runs2, 1);
}

TEST(EventPoolHandle, StaleHandleInertAcrossShrink)
{
    EventQueue eq;
    auto h1 = eq.schedule(10, [] {});
    h1.cancel();
    eq.runAll();
    eq.shrink(); // drops every slab; raises the generation floor

    int runs = 0;
    auto h2 = eq.schedule(20, [&] { ++runs; });
    EXPECT_FALSE(h1.pending());
    h1.cancel(); // must not touch the fresh slab's occupant
    EXPECT_TRUE(h2.pending());
    eq.runAll();
    EXPECT_EQ(runs, 1);
}

// --------------------------------------------------------- pool unit

TEST(EventPool, GenerationChecksGateIsPending)
{
    EventPool pool;
    const auto idx = pool.alloc([] {});
    const auto gen = pool.gen(idx);
    EXPECT_TRUE(pool.isPending(idx, gen));
    EXPECT_FALSE(pool.isPending(idx, gen + 1));
    EXPECT_FALSE(pool.isPending(idx + 1000, gen));
    pool.free(idx);
    EXPECT_FALSE(pool.isPending(idx, gen));
    pool.releaseAll();
}

TEST(EventPool, ReleaseAllRaisesGenerationFloor)
{
    EventPool pool;
    const auto idx = pool.alloc([] {});
    const auto gen = pool.gen(idx);
    pool.free(idx);
    pool.releaseAll(/*handles_outstanding=*/true);
    // New slabs start past every generation ever handed out.
    const auto idx2 = pool.alloc([] {});
    EXPECT_EQ(idx2, idx); // same slot index, fresh slab
    EXPECT_GT(pool.gen(idx2), gen);
    pool.free(idx2);
    pool.releaseAll();
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
        std::vector<EventQueue::Handle> handles;
        std::vector<int> ids;

        const int n = 50 + static_cast<int>(rng.uniformInt(0, 150));
        for (int i = 0; i < n; ++i) {
            const Tick when = static_cast<Tick>(rng.uniformInt(0, 50));
            const int pri = static_cast<int>(rng.uniformInt(0, 5)) - 2;
            const int id = ref.schedule(when, pri);
            handles.push_back(
                eq.schedule(when, [&got, id] { got.push_back(id); },
                            pri));
            ids.push_back(id);
            // Occasionally cancel a random earlier event.
            if (rng.uniformInt(0, 4) == 0) {
                const auto pick = static_cast<std::size_t>(
                    rng.uniformInt(0, handles.size() - 1));
                handles[pick].cancel();
                ref.cancel(ids[pick]);
            }
        }
        eq.runAll();
        EXPECT_EQ(got, ref.runAll()) << "round " << round;
    }
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

TEST(EventPoolAlloc, OversizedCaptureCountsAsSboMiss)
{
    EventQueue eq;
    struct Big
    {
        char bytes[InlineFn::kInlineSize + 8];
    };
    const Big big{};
    eq.schedule(1, [big] { (void)big; });
    EXPECT_EQ(eq.stats().sbo_misses, 1u);
    eq.runAll();
}

// ------------------------------------------------------ stats/shrink

TEST(EventQueueStats, TracksPeakPendingAndShrinks)
{
    EventQueue eq;
    for (int i = 0; i < 600; ++i)
        eq.schedule(i, [] {});
    auto s = eq.stats();
    EXPECT_EQ(s.pending, 600u);
    EXPECT_EQ(s.peak_pending, 600u);
    EXPECT_GE(s.pool_capacity, 600u);
    EXPECT_GE(s.pool_slabs, 1u);

    eq.runAll();
    s = eq.stats();
    EXPECT_EQ(s.pending, 0u);
    EXPECT_EQ(s.peak_pending, 600u);
    EXPECT_EQ(s.executed, 600u);
    EXPECT_GE(s.pool_capacity, 600u); // retained for reuse

    eq.shrink();
    s = eq.stats();
    EXPECT_EQ(s.pool_capacity, 0u); // fully drained: slabs dropped
    EXPECT_EQ(s.pool_slabs, 0u);
    EXPECT_EQ(s.shrinks, 1u);

    // The queue stays usable after a shrink.
    int runs = 0;
    eq.scheduleIn(5, [&] { ++runs; });
    eq.runAll();
    EXPECT_EQ(runs, 1);
}

} // namespace
} // namespace jetsim::sim
