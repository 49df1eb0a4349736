/**
 * @file
 * Outbox unit tests: a push/drain round trip, push order across many
 * drains within one block, node reuse after a burst, move-only
 * payloads, teardown of undrained messages, a drain loop racing a
 * producer, and the sharded engine's role handoff (each role passed
 * between threads by an acquire/release flag, as a shard claim passes
 * it). tools/ci.sh pass 2c reruns them under the sanitizer.
 */

#include "sim/outbox.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace jetsim::sim {
namespace {

std::vector<int>
drainAll(Outbox<int> &box)
{
    std::vector<int> got;
    box.drain([&](int &&v) { got.push_back(v); });
    return got;
}

TEST(Outbox, PushDrainRoundTrip)
{
    Outbox<int> box;
    for (int i = 0; i < 5; ++i)
        box.push(i);
    EXPECT_EQ(drainAll(box), (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(box.drain([](int &&) { FAIL(); }), 0u);
    EXPECT_EQ(box.blocks(), 1u);
}

TEST(Outbox, ManyDrainsKeepOrderInOneBlock)
{
    Outbox<int> box;
    int next = 0;
    for (int round = 0; round < 100; ++round) {
        const int first = next;
        for (int i = 0; i < 3; ++i)
            box.push(next++);
        EXPECT_EQ(drainAll(box),
                  (std::vector<int>{first, first + 1, first + 2}));
    }
    EXPECT_EQ(box.blocks(), 1u);
}

TEST(Outbox, SteadyStreamAfterABurstAllocatesNoBlock)
{
    Outbox<int> box;
    constexpr int kBurst = 300;
    for (int i = 0; i < kBurst; ++i)
        box.push(i);
    const std::size_t blocks = box.blocks();
    EXPECT_GT(blocks, 1u);
    const std::vector<int> got = drainAll(box);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kBurst));
    for (int i = 0; i < kBurst; ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
    // Drained nodes are reused: a steady stream, and even a second
    // burst of the same depth, buy no further block.
    for (int round = 0; round < 1000; ++round) {
        box.push(round);
        box.push(round);
        EXPECT_EQ(drainAll(box).size(), 2u);
    }
    for (int i = 0; i < kBurst; ++i)
        box.push(i);
    EXPECT_EQ(drainAll(box).size(), static_cast<std::size_t>(kBurst));
    EXPECT_EQ(box.blocks(), blocks);
}

TEST(Outbox, MoveOnlyPayload)
{
    Outbox<std::unique_ptr<int>> box;
    for (int i = 0; i < 100; ++i) // past one block
        box.push(std::make_unique<int>(i));
    long sum = 0;
    box.drain([&](std::unique_ptr<int> &&p) { sum += *p; });
    EXPECT_EQ(sum, 4950);
}

TEST(Outbox, DropsUndrainedOnDestruction)
{
    // Leak check rides the test binary's sanitizer jobs: destroying
    // an outbox with queued messages must release them.
    auto counted = std::make_shared<int>(0);
    struct Tok
    {
        std::shared_ptr<int> c;
        ~Tok()
        {
            if (c)
                ++*c;
        }
        Tok(std::shared_ptr<int> p) : c(std::move(p)) {}
        Tok(Tok &&o) noexcept : c(std::move(o.c)) {}
    };
    {
        Outbox<Tok> box;
        for (int i = 0; i < 100; ++i)
            box.push(Tok{counted});
        int seen = 0;
        box.drain([&](Tok &&) { ++seen; });
        EXPECT_EQ(seen, 100);
        EXPECT_EQ(*counted, 100);
        for (int i = 0; i < 70; ++i)
            box.push(Tok{counted});
    }
    EXPECT_EQ(*counted, 170);
}

TEST(Outbox, DrainWhileProducerPushesLosesNothing)
{
    // The clock loop's shape: the poster's worker pushes while the
    // receiver's worker drains.
    constexpr std::uint64_t kTotal = 50000;
    Outbox<std::uint64_t> box;
    std::atomic<bool> done{false};
    std::thread producer([&box, &done] {
        for (std::uint64_t i = 0; i < kTotal; ++i)
            box.push(i);
        done.store(true, std::memory_order_release);
    });
    std::vector<std::uint64_t> got;
    got.reserve(kTotal);
    const auto take = [&got](std::uint64_t &&v) { got.push_back(v); };
    while (!done.load(std::memory_order_acquire))
        box.drain(take);
    producer.join();
    box.drain(take); // pushes that finished after the last drain
    ASSERT_EQ(got.size(), kTotal);
    for (std::uint64_t i = 0; i < kTotal; ++i)
        ASSERT_EQ(got[i], i);
}

TEST(Outbox, RolesHandOverThroughAcquireRelease)
{
    // Two threads take turns as the producer and two as the consumer,
    // each role passed on by a release store its next holder acquires
    // — the way a shard claim moves a poster, or a receiver, from one
    // worker to another.
    constexpr std::uint64_t kTotal = 20000;
    constexpr std::uint64_t kChunk = 97;
    Outbox<std::uint64_t> box;
    std::atomic<int> producer_turn{0};
    std::atomic<int> consumer_turn{0};
    std::uint64_t next = 0;         // the producers' handed-over state
    std::vector<std::uint64_t> got; // the consumers'
    got.reserve(kTotal);
    const auto wait_turn = [](const std::atomic<int> &turn, int me) {
        while (turn.load(std::memory_order_acquire) != me)
            std::this_thread::yield();
    };
    const auto producer = [&](int me) {
        for (;;) {
            wait_turn(producer_turn, me);
            const bool done = next == kTotal;
            for (std::uint64_t i = 0; i < kChunk && next < kTotal; ++i)
                box.push(next++);
            producer_turn.store(1 - me, std::memory_order_release);
            if (done)
                return;
        }
    };
    const auto consumer = [&](int me) {
        for (;;) {
            wait_turn(consumer_turn, me);
            const bool done = got.size() == kTotal;
            if (!done)
                box.drain([&got](std::uint64_t &&v) { got.push_back(v); });
            consumer_turn.store(1 - me, std::memory_order_release);
            if (done)
                return;
        }
    };
    std::vector<std::thread> ts;
    for (int me = 0; me < 2; ++me) {
        ts.emplace_back(producer, me);
        ts.emplace_back(consumer, me);
    }
    for (auto &t : ts)
        t.join();
    ASSERT_EQ(got.size(), kTotal);
    for (std::uint64_t i = 0; i < kTotal; ++i)
        ASSERT_EQ(got[i], i);
}

} // namespace
} // namespace jetsim::sim
