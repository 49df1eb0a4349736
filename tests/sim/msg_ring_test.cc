/**
 * @file
 * MsgRing unit tests: ring fast path, arena overflow, move-only
 * payloads, and the MPSC contract under real producer threads, with
 * the consumer draining while they push.
 */

#include "sim/msg_ring.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace jetsim::sim {
namespace {

TEST(MsgRing, PushDrainRoundTrip)
{
    MsgRing<int> ring(8);
    for (int i = 0; i < 5; ++i)
        ring.push(i);
    std::vector<int> got;
    EXPECT_EQ(ring.drain([&](int &&v) { got.push_back(v); }), 5u);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(ring.drain([&](int &&) { FAIL(); }), 0u);
    EXPECT_EQ(ring.overflowed(), 0u);
}

TEST(MsgRing, RingWrapsAcrossManyDrains)
{
    MsgRing<int> ring(4);
    int next = 0;
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 3; ++i)
            ring.push(next++);
        int seen = 0;
        ring.drain([&](int &&) { ++seen; });
        EXPECT_EQ(seen, 3);
    }
    EXPECT_EQ(ring.overflowed(), 0u);
    EXPECT_EQ(ring.blocksAllocated(), 0u);
}

TEST(MsgRing, OverflowTakesArenaBlocksAndRecycles)
{
    MsgRing<int> ring(4);
    constexpr int kBurst = 300;
    for (int i = 0; i < kBurst; ++i)
        ring.push(i);
    EXPECT_GT(ring.overflowed(), 0u);
    EXPECT_GT(ring.blocksAllocated(), 0u);
    std::vector<int> got;
    EXPECT_EQ(ring.drain([&](int &&v) { got.push_back(v); }),
              static_cast<std::size_t>(kBurst));
    std::sort(got.begin(), got.end());
    for (int i = 0; i < kBurst; ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
    // Second burst reuses the freelist: no new blocks.
    const auto blocks = ring.blocksAllocated();
    for (int i = 0; i < kBurst; ++i)
        ring.push(i);
    std::size_t n = 0;
    ring.drain([&](int &&) { ++n; });
    EXPECT_EQ(n, static_cast<std::size_t>(kBurst));
    EXPECT_EQ(ring.blocksAllocated(), blocks);
}

TEST(MsgRing, MoveOnlyPayload)
{
    MsgRing<std::unique_ptr<int>> ring(8);
    for (int i = 0; i < 20; ++i) // past capacity: overflow too
        ring.push(std::make_unique<int>(i));
    long sum = 0;
    ring.drain([&](std::unique_ptr<int> &&p) { sum += *p; });
    EXPECT_EQ(sum, 190);
}

TEST(MsgRing, DropsUndrainedOnDestruction)
{
    // Leak check rides the test binary's sanitizer jobs: destroying
    // a ring with queued ring + overflow entries must release them.
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
        MsgRing<Tok> ring(4);
        for (int i = 0; i < 10; ++i)
            ring.push(Tok{counted});
    }
    EXPECT_EQ(*counted, 10);
}

TEST(MsgRing, ConcurrentProducersLoseNothing)
{
    // The engine's shape: N producers hammer one shard's inbox
    // during a phase; the consumer drains at a quiescent point.
    MsgRing<std::uint64_t> ring(64);
    constexpr int kProducers = 4;
    constexpr std::uint64_t kEach = 5000;
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (int p = 0; p < kProducers; ++p)
        ts.emplace_back([&ring, &go, p] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (std::uint64_t i = 0; i < kEach; ++i)
                ring.push(static_cast<std::uint64_t>(p) * kEach + i);
        });
    go.store(true, std::memory_order_release);
    for (auto &t : ts)
        t.join();
    // Quiescent now: single consumer drains everything exactly once.
    std::vector<std::uint64_t> got;
    got.reserve(kProducers * kEach);
    ring.drain([&](std::uint64_t &&v) { got.push_back(v); });
    ASSERT_EQ(got.size(), kProducers * kEach);
    std::sort(got.begin(), got.end());
    for (std::uint64_t i = 0; i < kProducers * kEach; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(MsgRing, DrainWhileProducersPushLosesNothing)
{
    // The clock loop's shape: producers (one id each) push while the
    // consumer drains; a small ring forces the overflow path and its
    // node recycling onto the owners' freelists mid-run.
    constexpr std::size_t kProducers = 3;
    MsgRing<std::uint64_t> ring(8, kProducers);
    constexpr std::uint64_t kEach = 20000;
    std::atomic<std::size_t> done{0};
    std::vector<std::thread> ts;
    for (std::size_t p = 0; p < kProducers; ++p)
        ts.emplace_back([&ring, &done, p] {
            for (std::uint64_t i = 0; i < kEach; ++i)
                ring.push(p * kEach + i, p);
            done.fetch_add(1, std::memory_order_release);
        });
    std::vector<std::uint64_t> got;
    got.reserve(kProducers * kEach);
    const auto take = [&](std::uint64_t &&v) { got.push_back(v); };
    while (done.load(std::memory_order_acquire) < kProducers)
        ring.drain(take);
    for (auto &t : ts)
        t.join();
    ring.drain(take); // pushes that finished after the last drain
    ASSERT_EQ(got.size(), kProducers * kEach);
    std::sort(got.begin(), got.end());
    for (std::uint64_t i = 0; i < kProducers * kEach; ++i)
        ASSERT_EQ(got[i], i);
    EXPECT_GT(ring.overflowed(), 0u);
}

} // namespace
} // namespace jetsim::sim
