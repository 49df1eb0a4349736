/**
 * @file
 * Tests for sim::Fifo, the run phase's grow-only ring queue: order
 * across wrap-around and growth, order-preserving erase, and that a
 * pop destroys the element (a popped callback's captures) at once.
 */

#include "sim/fifo.hh"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/inline_fn.hh"

namespace jetsim::sim {
namespace {

std::vector<int>
drain(Fifo<int> &q)
{
    std::vector<int> out;
    while (!q.empty()) {
        out.push_back(q.front());
        q.pop_front();
    }
    return out;
}

TEST(Fifo, StartsEmptyWithoutStorage)
{
    Fifo<int> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.capacity(), 0u);
}

TEST(Fifo, WrapsAroundWithoutGrowing)
{
    Fifo<int> q;
    for (int i = 0; i < 3; ++i)
        q.push_back(i);
    const std::size_t cap = q.capacity();
    // Steady depth 3: the head walks round the ring many times.
    for (int i = 3; i < 100; ++i) {
        EXPECT_EQ(q.front(), i - 3);
        q.pop_front();
        q.push_back(i);
        EXPECT_EQ(q.back(), i);
        EXPECT_EQ(q.size(), 3u);
    }
    EXPECT_EQ(q.capacity(), cap);
    EXPECT_EQ(drain(q), (std::vector<int>{97, 98, 99}));
}

TEST(Fifo, GrowsWhileWrappedKeepingOrder)
{
    Fifo<int> q;
    for (int i = 0; i < 4; ++i)
        q.push_back(i);
    const std::size_t cap = q.capacity();
    ASSERT_EQ(q.size(), cap); // full
    q.pop_front();
    q.pop_front();
    q.push_back(4);
    q.push_back(5); // full again, with the head mid-ring
    ASSERT_EQ(q.size(), cap);
    q.push_back(6); // grows while wrapped
    EXPECT_EQ(q.capacity(), 2 * cap);
    for (int i = 7; i < 10; ++i)
        q.push_back(i);
    EXPECT_EQ(q[0], 2);
    EXPECT_EQ(q[7], 9);
    EXPECT_EQ(drain(q), (std::vector<int>{2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Fifo, NeverShrinks)
{
    Fifo<int> q;
    for (int i = 0; i < 40; ++i)
        q.push_back(i);
    const std::size_t cap = q.capacity();
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), cap);
    q.push_back(7);
    EXPECT_EQ(q.front(), 7);
    EXPECT_EQ(q.capacity(), cap);
}

TEST(Fifo, EraseKeepsTheOthersInOrder)
{
    Fifo<int> q;
    // Wrap the head first so the erase shifts across the ring's end.
    for (int i = 0; i < 3; ++i)
        q.push_back(-1);
    for (int i = 0; i < 3; ++i)
        q.pop_front();
    for (int i = 0; i < 4; ++i)
        q.push_back(i);
    q.erase(2);
    EXPECT_EQ(q.size(), 3u);
    q.erase(0);
    q.push_back(4);
    q.erase(2);
    EXPECT_EQ(drain(q), (std::vector<int>{1, 3}));
}

TEST(Fifo, PopReleasesCallbackCaptures)
{
    auto token = std::make_shared<int>(1);
    Fifo<InlineFn> q;
    q.push_back([token] {});
    q.push_back([] {});
    EXPECT_EQ(token.use_count(), 2);
    q.pop_front(); // the capture dies here, not when the slot is reused
    EXPECT_EQ(token.use_count(), 1);
    q.push_back([token] {});
    q.clear();
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Fifo, MoveTransfersElements)
{
    Fifo<std::unique_ptr<int>> a;
    a.push_back(std::make_unique<int>(5));
    Fifo<std::unique_ptr<int>> b(std::move(a));
    EXPECT_TRUE(a.empty()); // NOLINT(bugprone-use-after-move)
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(*b.front(), 5);
    a = std::move(b);
    EXPECT_EQ(*a.front(), 5);
}

} // namespace
} // namespace jetsim::sim
