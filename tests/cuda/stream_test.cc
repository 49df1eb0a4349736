/**
 * @file
 * CUDA-shim tests: stream ordering, completion waiters, and
 * device-buffer RAII.
 */

#include "cuda/device_buffer.hh"
#include "cuda/stream.hh"

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "soc/board.hh"

namespace jetsim::cuda {
namespace {

struct Rig
{
    sim::EventQueue eq;
    soc::Board board{soc::orinNano(), eq};
    gpu::GpuEngine engine{board};
};

gpu::KernelDesc
kernel()
{
    gpu::KernelDesc k;
    k.name = "k";
    k.flops = 1e8;
    k.bytes = 1e6;
    k.prec = soc::Precision::Fp16;
    k.tc = true;
    k.blocks = 64;
    return k;
}

TEST(Stream, CountsSubmittedAndCompleted)
{
    Rig r;
    Stream s(r.engine, "s0");
    const auto k = kernel();
    EXPECT_TRUE(s.idle());
    s.launch(&k);
    s.launch(&k);
    EXPECT_EQ(s.submitted(), 2u);
    EXPECT_EQ(s.completed(), 0u);
    EXPECT_FALSE(s.idle());
    r.eq.runAll();
    EXPECT_EQ(s.completed(), 2u);
    EXPECT_TRUE(s.idle());
}

TEST(Stream, OnCompleteFiresImmediatelyWhenSatisfied)
{
    Rig r;
    Stream s(r.engine, "s0");
    bool fired = false;
    s.onComplete(0, [&] { fired = true; });
    EXPECT_TRUE(fired);
}

TEST(Stream, OnCompleteFiresAtTarget)
{
    Rig r;
    Stream s(r.engine, "s0");
    const auto k = kernel();
    std::vector<std::uint64_t> seen;
    s.launch(&k);
    s.launch(&k);
    s.launch(&k);
    s.onComplete(2, [&] { seen.push_back(s.completed()); });
    s.onComplete(3, [&] { seen.push_back(s.completed()); });
    r.eq.runAll();
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{2, 3}));
}

TEST(Stream, MultipleWaitersSameTarget)
{
    Rig r;
    Stream s(r.engine, "s0");
    const auto k = kernel();
    s.launch(&k);
    int fired = 0;
    s.onComplete(1, [&] { ++fired; });
    s.onComplete(1, [&] { ++fired; });
    r.eq.runAll();
    EXPECT_EQ(fired, 2);
}

TEST(DeviceBuffer, AllocatesAndReleasesOnDestruction)
{
    soc::UnifiedMemory mem(1 * sim::kGiB, 0);
    {
        auto buf = DeviceBuffer::tryAlloc(mem, "p", 100 * sim::kMiB);
        ASSERT_TRUE(buf.has_value());
        EXPECT_EQ(mem.used(), 100 * sim::kMiB);
    }
    EXPECT_EQ(mem.used(), 0u);
}

TEST(DeviceBuffer, FailureReturnsNullopt)
{
    soc::UnifiedMemory mem(64 * sim::kMiB, 0);
    auto buf = DeviceBuffer::tryAlloc(mem, "p", 100 * sim::kMiB);
    EXPECT_FALSE(buf.has_value());
    EXPECT_EQ(mem.used(), 0u);
}

TEST(DeviceBuffer, MoveTransfersOwnership)
{
    soc::UnifiedMemory mem(1 * sim::kGiB, 0);
    auto a = DeviceBuffer::tryAlloc(mem, "p", 10 * sim::kMiB);
    ASSERT_TRUE(a.has_value());
    DeviceBuffer b = std::move(*a);
    EXPECT_EQ(mem.used(), 10 * sim::kMiB);
    a.reset(); // releasing the moved-from shell frees nothing
    EXPECT_EQ(mem.used(), 10 * sim::kMiB);
}

TEST(DeviceBuffer, MoveAssignReleasesPrevious)
{
    soc::UnifiedMemory mem(1 * sim::kGiB, 0);
    auto a = DeviceBuffer::tryAlloc(mem, "p", 10 * sim::kMiB);
    auto b = DeviceBuffer::tryAlloc(mem, "p", 20 * sim::kMiB);
    ASSERT_TRUE(a && b);
    *a = std::move(*b);
    EXPECT_EQ(mem.used(), 20 * sim::kMiB);
}

} // namespace
} // namespace jetsim::cuda
