/**
 * @file
 * GPU engine tests: channel FIFO order, the per-channel completion
 * callback, time multiplexing with switch penalties and quanta,
 * spatial (MPS-like) sharing, record subscribers and profiler
 * intrusion.
 */

#include "gpu/engine.hh"

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "soc/board.hh"

namespace jetsim::gpu {
namespace {

struct Rig
{
    sim::EventQueue eq;
    soc::Board board{soc::orinNano(), eq};
    GpuEngine engine{board};
};

KernelDesc
kernel(double flops = 5e8)
{
    KernelDesc k;
    k.name = "k";
    k.flops = flops;
    k.bytes = 1e6;
    k.prec = soc::Precision::Fp16;
    k.tc = true;
    k.blocks = 512;
    return k;
}

/**
 * Submits @p n distinct kernels to one channel and returns the order
 * in which the channel's completion callback saw them finish: a
 * record subscriber names the kernel, the callback (which fires right
 * after it, once per kernel) records it.
 */
std::vector<int>
completionOrder(Rig &r, int n)
{
    std::vector<KernelDesc> ks(static_cast<std::size_t>(n), kernel());
    const KernelDesc *last = nullptr;
    std::vector<int> order;
    const auto sub = r.engine.subscribe(
        [&](const KernelRecord &rec) { last = rec.desc; });
    const int ch = r.engine.createChannel("p0", [&] {
        order.push_back(static_cast<int>(last - ks.data()));
        last = nullptr;
    });
    for (const auto &k : ks)
        r.engine.submit(ch, &k);
    r.eq.runAll();
    return order;
}

TEST(GpuEngine, ExecutesSubmittedKernel)
{
    Rig r;
    bool done = false;
    const int ch = r.engine.createChannel("p0", [&] { done = true; });
    const auto k = kernel();
    r.engine.submit(ch, &k);
    r.eq.runAll();
    EXPECT_TRUE(done);
    EXPECT_EQ(r.engine.kernelsExecuted(), 1u);
}

TEST(GpuEngine, ChannelIsFifo)
{
    Rig r;
    EXPECT_EQ(completionOrder(r, 5), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(GpuEngine, BusyWhileExecuting)
{
    Rig r;
    const int ch = r.engine.createChannel("p0");
    const auto k = kernel();
    r.engine.submit(ch, &k);
    r.eq.runUntil(sim::usec(10));
    EXPECT_TRUE(r.board.activity().gpu_busy);
    r.eq.runAll();
    EXPECT_FALSE(r.board.activity().gpu_busy);
}

TEST(GpuEngine, SingleChannelPaysNoSwitches)
{
    Rig r;
    const int ch = r.engine.createChannel("p0");
    const auto k = kernel();
    for (int i = 0; i < 10; ++i)
        r.engine.submit(ch, &k);
    r.eq.runAll();
    EXPECT_EQ(r.engine.channelSwitches(), 0u);
}

TEST(GpuEngine, MultiChannelPaysSwitchPenalty)
{
    Rig r;
    const int a = r.engine.createChannel("a");
    const int b = r.engine.createChannel("b");
    const auto k = kernel();
    for (int i = 0; i < 4; ++i) {
        r.engine.submit(a, &k);
        r.engine.submit(b, &k);
    }
    r.eq.runAll();
    EXPECT_GT(r.engine.channelSwitches(), 0u);
}

TEST(GpuEngine, TwoChannelsShareFairly)
{
    Rig r;
    int done_a = 0, done_b = 0;
    const int a = r.engine.createChannel("a", [&] { ++done_a; });
    const int b = r.engine.createChannel("b", [&] { ++done_b; });
    const auto k = kernel();
    for (int i = 0; i < 20; ++i) {
        r.engine.submit(a, &k);
        r.engine.submit(b, &k);
    }
    // Run until roughly half the work is finished, then compare.
    r.eq.runUntil(sim::msec(2));
    EXPECT_NEAR(done_a, done_b, 8);
    r.eq.runAll();
    EXPECT_EQ(done_a, 20);
    EXPECT_EQ(done_b, 20);
}

TEST(GpuEngine, SerializationStretchesCompletionTime)
{
    // Two channels of work take about twice as long as one.
    const auto k = kernel();
    sim::Tick one, two;
    {
        Rig r;
        const int a = r.engine.createChannel("a");
        for (int i = 0; i < 10; ++i)
            r.engine.submit(a, &k);
        r.eq.runAll();
        one = r.eq.now();
    }
    {
        Rig r;
        const int a = r.engine.createChannel("a");
        const int b = r.engine.createChannel("b");
        for (int i = 0; i < 10; ++i) {
            r.engine.submit(a, &k);
            r.engine.submit(b, &k);
        }
        r.eq.runAll();
        two = r.eq.now();
    }
    EXPECT_GT(two, static_cast<sim::Tick>(1.8 * one));
}

TEST(GpuEngine, TraceHookSeesEveryKernel)
{
    Rig r;
    const int ch = r.engine.createChannel("p0");
    const auto k = kernel();
    std::vector<KernelRecord> recs;
    const auto first = r.engine.subscribe([&](const KernelRecord &rec) {
        recs.push_back(rec);
    });
    // Subscribers run in subscription order: the second sees each
    // record right after the first has.
    std::size_t second_seen = 0;
    const auto second = r.engine.subscribe([&](const KernelRecord &rec) {
        ++second_seen;
        ASSERT_EQ(recs.size(), second_seen);
        EXPECT_EQ(recs.back().start, rec.start);
        EXPECT_EQ(recs.back().end, rec.end);
    });
    for (int i = 0; i < 6; ++i)
        r.engine.submit(ch, &k);
    r.eq.runAll();
    EXPECT_EQ(second_seen, 6u);
    ASSERT_EQ(recs.size(), 6u);
    for (const auto &rec : recs) {
        EXPECT_EQ(rec.desc, &k);
        EXPECT_LE(rec.submit, rec.start);
        EXPECT_LT(rec.start, rec.end);
    }
    // Back-to-back: each next kernel starts when the previous ends.
    for (std::size_t i = 1; i < recs.size(); ++i)
        EXPECT_EQ(recs[i].start, recs[i - 1].end);
}

TEST(GpuEngine, ExtraOverheadLengthensKernels)
{
    const auto k = kernel();
    sim::Tick base, instrumented;
    {
        Rig r;
        const int ch = r.engine.createChannel("p");
        r.engine.submit(ch, &k);
        r.eq.runAll();
        base = r.eq.now();
    }
    {
        Rig r;
        r.engine.setExtraKernelOverhead(sim::usec(14));
        const int ch = r.engine.createChannel("p");
        r.engine.submit(ch, &k);
        r.eq.runAll();
        instrumented = r.eq.now();
    }
    EXPECT_GE(instrumented, base + sim::usec(13));
}

TEST(GpuEngine, CompletionCallbackMaySubmitMore)
{
    Rig r;
    const auto k = kernel();
    int count = 0;
    int ch = -1;
    ch = r.engine.createChannel("p0", [&] {
        if (++count < 5)
            r.engine.submit(ch, &k);
    });
    r.engine.submit(ch, &k);
    r.eq.runAll();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(r.engine.kernelsExecuted(), 5u);
}

TEST(GpuEngine, CallbackFiresOncePerKernelOnItsOwnChannel)
{
    Rig r;
    int done_a = 0, done_b = 0;
    const int a = r.engine.createChannel("a", [&] { ++done_a; });
    const int b = r.engine.createChannel("b", [&] { ++done_b; });
    const int quiet = r.engine.createChannel("quiet");
    const auto k = kernel();
    for (int i = 0; i < 3; ++i)
        r.engine.submit(a, &k);
    r.engine.submit(b, &k);
    r.engine.submit(quiet, &k);
    r.eq.runAll();
    EXPECT_EQ(done_a, 3);
    EXPECT_EQ(done_b, 1);
    EXPECT_EQ(r.engine.kernelsExecuted(), 5u);
}

TEST(GpuEngine, ChannelDepthTracksQueue)
{
    Rig r;
    const int ch = r.engine.createChannel("p0");
    const auto k = kernel();
    EXPECT_EQ(r.engine.channelDepth(ch), 0u);
    r.engine.submit(ch, &k);
    r.engine.submit(ch, &k);
    EXPECT_EQ(r.engine.channelDepth(ch), 2u);
    r.eq.runAll();
    EXPECT_EQ(r.engine.channelDepth(ch), 0u);
}

TEST(GpuEngine, DispatchWaitGrowsWithQueueing)
{
    Rig r;
    const int ch = r.engine.createChannel("p0");
    const auto k = kernel();
    std::vector<sim::Tick> waits;
    const auto sub = r.engine.subscribe([&](const KernelRecord &rec) {
        waits.push_back(rec.start - rec.submit);
    });
    for (int i = 0; i < 10; ++i)
        r.engine.submit(ch, &k);
    r.eq.runAll();
    // The first kernel starts immediately, each later one waited
    // longer than the one before it.
    ASSERT_EQ(waits.size(), 10u);
    EXPECT_EQ(waits.front(), 0);
    for (std::size_t i = 1; i < waits.size(); ++i)
        EXPECT_GT(waits[i], waits[i - 1]) << i;
}

// ------------------------------------------------ spatial (MPS) mode

TEST(GpuEngineSpatial, RunsChannelsConcurrently)
{
    Rig r;
    r.engine.setSpatialSharing(true);
    sim::Tick done_a = 0, done_b = 0;
    const int a =
        r.engine.createChannel("a", [&] { done_a = r.eq.now(); });
    const int b =
        r.engine.createChannel("b", [&] { done_b = r.eq.now(); });
    const auto k = kernel();
    r.engine.submit(a, &k);
    r.engine.submit(b, &k);
    r.eq.runAll();
    // Processor sharing: both finish at ~2x the solo duration, at
    // nearly the same time (no serialisation to 1x then 2x; the
    // residual gap is the per-kernel duration jitter).
    EXPECT_NEAR(static_cast<double>(done_a),
                static_cast<double>(done_b),
                static_cast<double>(done_a) * 0.10);
}

TEST(GpuEngineSpatial, SoloKernelRunsAtFullRate)
{
    const auto k = kernel();
    sim::Tick mux, spatial;
    {
        Rig r;
        const int ch = r.engine.createChannel("p");
        r.engine.submit(ch, &k);
        r.eq.runAll();
        mux = r.eq.now();
    }
    {
        Rig r;
        r.engine.setSpatialSharing(true);
        const int ch = r.engine.createChannel("p");
        r.engine.submit(ch, &k);
        r.eq.runAll();
        spatial = r.eq.now();
    }
    EXPECT_NEAR(static_cast<double>(spatial),
                static_cast<double>(mux),
                static_cast<double>(mux) * 0.1 + 1e4);
}

TEST(GpuEngineSpatial, NoChannelSwitchPenalty)
{
    Rig r;
    r.engine.setSpatialSharing(true);
    const int a = r.engine.createChannel("a");
    const int b = r.engine.createChannel("b");
    const auto k = kernel();
    for (int i = 0; i < 5; ++i) {
        r.engine.submit(a, &k);
        r.engine.submit(b, &k);
    }
    r.eq.runAll();
    EXPECT_EQ(r.engine.channelSwitches(), 0u);
    EXPECT_EQ(r.engine.kernelsExecuted(), 10u);
}

TEST(GpuEngineSpatial, PerChannelOrderPreserved)
{
    Rig r;
    r.engine.setSpatialSharing(true);
    EXPECT_EQ(completionOrder(r, 4), (std::vector<int>{0, 1, 2, 3}));
}

} // namespace
} // namespace jetsim::gpu
