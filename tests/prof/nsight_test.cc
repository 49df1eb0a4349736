/**
 * @file
 * Nsight tracer tests: span capture, counter CDFs, and the
 * modelled intrusion.
 */

#include "prof/nsight.hh"

#include <gtest/gtest.h>

namespace jetsim::prof {
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
    k.flops = 1e9;
    k.bytes = 2e6;
    k.prec = soc::Precision::Fp16;
    k.tc = true;
    k.blocks = 512;
    return k;
}

TEST(Nsight, RecordsKernelSpans)
{
    Rig r;
    NsightTracer tracer(r.board, r.engine);
    tracer.attach();
    const auto k = kernel();
    const int ch = r.engine.createChannel("p");
    for (int i = 0; i < 5; ++i)
        r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(100));
    EXPECT_EQ(tracer.kernelCount(), 5u);
    EXPECT_GT(tracer.kernelDuration().mean(), 0.0);
}

TEST(Nsight, SamplesCountersWhileBusy)
{
    Rig r;
    NsightTracer tracer(r.board, r.engine, sim::usec(50));
    tracer.attach();
    const auto k = kernel();
    const int ch = r.engine.createChannel("p");
    for (int i = 0; i < 20; ++i)
        r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(100));
    EXPECT_GT(tracer.smActiveCdf().count(), 10u);
    EXPECT_GT(tracer.tcUtilCdf().median(), 0.0);
    // Percent units.
    EXPECT_LE(tracer.smActiveCdf().max(), 100.0);
    EXPECT_GE(tracer.smActiveCdf().min(), 0.0);
}

TEST(Nsight, NoCounterSamplesWhileIdle)
{
    Rig r;
    NsightTracer tracer(r.board, r.engine, sim::usec(50));
    tracer.attach();
    r.eq.runUntil(sim::msec(10));
    EXPECT_EQ(tracer.smActiveCdf().count(), 0u);
}

TEST(Nsight, IntrusionSlowsKernels)
{
    const auto k = kernel();
    sim::Tick clean = 0, traced = 0;
    {
        Rig r;
        const int ch = r.engine.createChannel(
            "p", [&] { clean = r.eq.now(); });
        for (int i = 0; i < 10; ++i)
            r.engine.submit(ch, &k);
        r.eq.runUntil(sim::msec(100));
    }
    {
        Rig r;
        NsightTracer tracer(r.board, r.engine);
        tracer.attach();
        const int ch = r.engine.createChannel(
            "p", [&] { traced = r.eq.now(); });
        for (int i = 0; i < 10; ++i)
            r.engine.submit(ch, &k);
        r.eq.runUntil(sim::msec(100));
    }
    ASSERT_GT(clean, 0);
    ASSERT_GT(traced, 0);
    EXPECT_GE(traced,
              clean + 10 * NsightTracer::kPerKernelOverhead - 100);
}

TEST(Nsight, DetachRestoresCleanState)
{
    Rig r;
    NsightTracer tracer(r.board, r.engine);
    tracer.attach();
    EXPECT_GT(r.engine.extraKernelOverhead(), 0);
    EXPECT_GT(r.board.launchOverheadFactor(), 1.0);
    tracer.detach();
    EXPECT_EQ(r.engine.extraKernelOverhead(), 0);
    EXPECT_DOUBLE_EQ(r.board.launchOverheadFactor(), 1.0);
}

TEST(Nsight, DestructorDetaches)
{
    Rig r;
    {
        NsightTracer tracer(r.board, r.engine);
        tracer.attach();
    }
    EXPECT_EQ(r.engine.extraKernelOverhead(), 0);
    EXPECT_DOUBLE_EQ(r.board.launchOverheadFactor(), 1.0);
}

TEST(Nsight, ResetClearsData)
{
    Rig r;
    NsightTracer tracer(r.board, r.engine);
    tracer.attach();
    const auto k = kernel();
    const int ch = r.engine.createChannel("p");
    r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(100));
    EXPECT_GT(tracer.kernelCount(), 0u);
    tracer.reset();
    EXPECT_EQ(tracer.kernelCount(), 0u);
    EXPECT_TRUE(tracer.smActiveCdf().empty());
}

} // namespace
} // namespace jetsim::prof
