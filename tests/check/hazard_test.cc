/**
 * @file
 * JetSan stream-hazard invariant: work submitted to a destroyed
 * stream's channel (the CUDA use-after-destroy analogue, e.g. an
 * ExecutionContext outliving its cuda::Stream) must be detected and
 * dropped; normal stream teardown must stay silent.
 */

#include <gtest/gtest.h>

#include "check/reporter.hh"
#include "cuda/stream.hh"
#include "gpu/engine.hh"
#include "sim/event_queue.hh"
#include "soc/board.hh"
#include "soc/device_spec.hh"

namespace jetsim {
namespace {

using check::Invariant;
using check::ScopedCapture;
using check::Severity;

gpu::KernelDesc
smallKernel()
{
    gpu::KernelDesc k;
    k.name = "probe";
    k.flops = 1e6;
    k.bytes = 1e5;
    k.blocks = 8;
    return k;
}

TEST(HazardInjection, SubmitOnDestroyedStreamIsDetected)
{
    sim::EventQueue eq;
    soc::Board board(soc::orinNano(), eq);
    gpu::GpuEngine engine(board);
    const gpu::KernelDesc k = smallKernel();

    int channel = -1;
    {
        cuda::Stream s(engine, "doomed");
        channel = s.channel();
        EXPECT_TRUE(engine.channelAlive(channel));
    }
    EXPECT_FALSE(engine.channelAlive(channel));

    // A retired channel whose callback is still observable.
    bool fired = false;
    const int watched =
        engine.createChannel("watched", [&fired] { fired = true; });
    engine.destroyChannel(watched);

    ScopedCapture cap;
    engine.submit(channel, &k);
    engine.submit(watched, &k);
    eq.runAll();

    ASSERT_EQ(cap.count(Invariant::StreamHazard), 2u);
    const auto &v = cap.violations().front();
    EXPECT_EQ(v.severity, Severity::Error);
    EXPECT_EQ(v.component, "gpu.engine");
    EXPECT_FALSE(fired); // the dangling callback never ran
    EXPECT_EQ(engine.kernelsExecuted(), 0u);
}

TEST(HazardInjection, InFlightKernelSkipsCallbackAfterDestroy)
{
    sim::EventQueue eq;
    soc::Board board(soc::orinNano(), eq);
    gpu::GpuEngine engine(board);
    const gpu::KernelDesc k = smallKernel();

    ScopedCapture cap;
    {
        cuda::Stream s(engine, "torn-down");
        s.launch(&k);
        // Destroyed while the kernel is still executing: the real
        // UAF this guards against is the engine calling back into
        // freed Stream memory (ASan catches the unguarded version).
    }
    eq.runAll();

    EXPECT_EQ(engine.kernelsExecuted(), 1u);
    // Teardown with in-flight work is normal shutdown, not a bug.
    EXPECT_EQ(cap.total(), 0u);

    // The same on a bare channel: the kernel in flight when the
    // channel is retired completes without its callback, and the
    // queued one is dropped.
    bool fired = false;
    const int ch = engine.createChannel("bare", [&fired] { fired = true; });
    engine.submit(ch, &k);
    engine.submit(ch, &k);
    EXPECT_EQ(engine.channelDepth(ch), 2u);
    engine.destroyChannel(ch);
    eq.runAll();
    EXPECT_FALSE(fired);
    EXPECT_EQ(engine.kernelsExecuted(), 2u);
    EXPECT_EQ(cap.total(), 0u);
}

TEST(HazardClean, NormalStreamLifecycleReportsNothing)
{
    ScopedCapture cap;
    sim::EventQueue eq;
    soc::Board board(soc::orinNano(), eq);
    gpu::GpuEngine engine(board);
    const gpu::KernelDesc k = smallKernel();

    cuda::Stream s(engine, "healthy");
    int done = 0;
    for (int i = 0; i < 5; ++i)
        s.launch(&k);
    s.onComplete(5, [&done] { ++done; });
    eq.runAll();

    EXPECT_EQ(s.completed(), 5u);
    EXPECT_EQ(done, 1);
    EXPECT_EQ(engine.kernelsExecuted(), 5u);
    EXPECT_EQ(cap.total(), 0u);
}

TEST(HazardClean, TwoStreamsTimeMultiplexCleanly)
{
    ScopedCapture cap;
    sim::EventQueue eq;
    soc::Board board(soc::orinNano(), eq);
    gpu::GpuEngine engine(board);
    const gpu::KernelDesc k = smallKernel();

    cuda::Stream a(engine, "a");
    cuda::Stream b(engine, "b");
    for (int i = 0; i < 4; ++i) {
        a.launch(&k);
        b.launch(&k);
    }
    eq.runAll();

    EXPECT_EQ(a.completed(), 4u);
    EXPECT_EQ(b.completed(), 4u);
    EXPECT_EQ(cap.total(), 0u);
}

} // namespace
} // namespace jetsim
