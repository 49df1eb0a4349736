/**
 * @file
 * Unit tests for the unified-memory accounting allocator.
 */

#include "soc/unified_memory.hh"

#include <gtest/gtest.h>

namespace jetsim::soc {
namespace {

constexpr sim::Bytes kGiB = sim::kGiB;

TEST(UnifiedMemory, FreshPoolIsEmpty)
{
    UnifiedMemory mem(4 * kGiB, 1 * kGiB);
    EXPECT_EQ(mem.used(), 0u);
    EXPECT_EQ(mem.available(), 3 * kGiB);
}

TEST(UnifiedMemory, AllocateAndRelease)
{
    UnifiedMemory mem(4 * kGiB, 1 * kGiB);
    const auto id = mem.allocate("p0", 512 * sim::kMiB);
    ASSERT_NE(id, UnifiedMemory::kBadAlloc);
    EXPECT_EQ(mem.used(), 512 * sim::kMiB);
    mem.release(id);
    EXPECT_EQ(mem.used(), 0u);
}

TEST(UnifiedMemory, OomReturnsBadAlloc)
{
    UnifiedMemory mem(2 * kGiB, 1 * kGiB);
    EXPECT_EQ(mem.allocate("p0", 2 * kGiB), UnifiedMemory::kBadAlloc);
    EXPECT_EQ(mem.used(), 0u);
}

TEST(UnifiedMemory, ExactFitSucceeds)
{
    UnifiedMemory mem(2 * kGiB, 1 * kGiB);
    EXPECT_NE(mem.allocate("p0", 1 * kGiB), UnifiedMemory::kBadAlloc);
    EXPECT_EQ(mem.available(), 0u);
    EXPECT_EQ(mem.allocate("p1", 1), UnifiedMemory::kBadAlloc);
}

TEST(UnifiedMemory, UsagePercentIncludesOsShare)
{
    UnifiedMemory mem(4 * kGiB, 1 * kGiB);
    EXPECT_DOUBLE_EQ(mem.usagePercent(), 25.0);
    mem.allocate("p0", 1 * kGiB);
    EXPECT_DOUBLE_EQ(mem.usagePercent(), 50.0);
}

TEST(UnifiedMemory, OwnerAccounting)
{
    UnifiedMemory mem(4 * kGiB, 0);
    mem.allocate("a", 100);
    mem.allocate("a", 200);
    mem.allocate("b", 50);
    EXPECT_EQ(mem.ownerUsage("a"), 300u);
    EXPECT_EQ(mem.ownerUsage("b"), 50u);
    EXPECT_EQ(mem.ownerUsage("c"), 0u);
}

TEST(UnifiedMemory, ManySmallAllocationsSumCorrectly)
{
    UnifiedMemory mem(1 * kGiB, 0);
    for (int i = 0; i < 100; ++i)
        ASSERT_NE(mem.allocate("p", 1024), UnifiedMemory::kBadAlloc);
    EXPECT_EQ(mem.used(), 100u * 1024u);
}

TEST(UnifiedMemory, FailedAllocationLeavesStateIntact)
{
    UnifiedMemory mem(1 * kGiB, 0);
    mem.allocate("p", 512 * sim::kMiB);
    const auto before = mem.used();
    EXPECT_EQ(mem.allocate("p", 600 * sim::kMiB),
              UnifiedMemory::kBadAlloc);
    EXPECT_EQ(mem.used(), before);
    // Smaller request still succeeds afterwards.
    EXPECT_NE(mem.allocate("p", 100 * sim::kMiB),
              UnifiedMemory::kBadAlloc);
}

} // namespace
} // namespace jetsim::soc
