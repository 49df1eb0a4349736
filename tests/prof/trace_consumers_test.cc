/**
 * @file
 * GPU trace consumers coexist: an NsightTracer, a KernelSummary, a
 * ChromeTraceExporter and a plain record subscriber watch one engine,
 * each sees every kernel, and each detaches without blinding the
 * others.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "prof/chrome_trace.hh"
#include "prof/kernel_summary.hh"
#include "prof/nsight.hh"
#include "sim/event_queue.hh"
#include "soc/board.hh"

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
    k.flops = 1e8;
    k.bytes = 1e6;
    k.prec = soc::Precision::Fp16;
    k.tc = true;
    k.blocks = 64;
    return k;
}

/** Parameter: spatial sharing on (true) or time multiplexing. */
class TraceConsumers : public ::testing::TestWithParam<bool>
{
};

TEST_P(TraceConsumers, FourConsumersShareOneEngine)
{
    Rig r;
    r.engine.setSpatialSharing(GetParam());
    NsightTracer tracer(r.board, r.engine);
    KernelSummary summary(r.engine);
    ChromeTraceExporter trace(r.engine);
    tracer.attach();
    summary.attach();
    trace.attach();

    // The lambda notes whose record arrived last; while it listens,
    // each completion callback must find its own kernel's record.
    std::uint64_t seen = 0;
    int last_channel = -1;
    auto sub = r.engine.subscribe([&](const gpu::KernelRecord &rec) {
        ++seen;
        last_channel = rec.channel;
    });
    std::array<int, 2> ch{};
    for (int i = 0; i < 2; ++i)
        ch[i] = r.engine.createChannel("p" + std::to_string(i), [&, i] {
            if (sub) {
                EXPECT_EQ(last_channel, ch[i]);
            }
            last_channel = -1;
        });

    const auto k = kernel();
    const auto runRound = [&] {
        for (int n = 0; n < 5; ++n)
            for (const int c : ch)
                r.engine.submit(c, &k);
        r.eq.runUntil(r.eq.now() + sim::msec(50));
    };

    runRound();
    const std::uint64_t first = r.engine.kernelsExecuted();
    ASSERT_EQ(first, 10u);
    EXPECT_EQ(tracer.kernelCount(), first);
    EXPECT_EQ(summary.totalCalls(), first);
    EXPECT_EQ(trace.eventCount(), first);
    EXPECT_EQ(seen, first);

    // Two consumers leave mid-run; the other two keep counting.
    trace.detach();
    sub.reset();
    runRound();
    ASSERT_EQ(r.engine.kernelsExecuted(), 2 * first);
    EXPECT_EQ(tracer.kernelCount(), 2 * first);
    EXPECT_EQ(summary.totalCalls(), 2 * first);
    EXPECT_EQ(trace.eventCount(), first);
    EXPECT_EQ(seen, first);
}

INSTANTIATE_TEST_SUITE_P(Sharing, TraceConsumers,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "Spatial"
                                               : "TimeMultiplexed";
                         });

} // namespace
} // namespace jetsim::prof
