/**
 * @file
 * Chrome-trace exporter tests.
 */

#include "prof/chrome_trace.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

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
kernel(const std::string &name)
{
    gpu::KernelDesc k;
    k.name = name;
    k.flops = 1e8;
    k.bytes = 1e6;
    k.prec = soc::Precision::Fp16;
    k.tc = true;
    k.blocks = 64;
    return k;
}

TEST(ChromeTrace, CapturesKernelEvents)
{
    Rig r;
    ChromeTraceExporter trace(r.engine);
    trace.attach();
    const auto k = kernel("conv1+fused");
    const int ch = r.engine.createChannel("p0");
    for (int i = 0; i < 3; ++i)
        r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(10));
    EXPECT_EQ(trace.eventCount(), 3u);
}

TEST(ChromeTrace, JsonIsWellFormedEnough)
{
    Rig r;
    ChromeTraceExporter trace(r.engine);
    trace.attach();
    const auto k = kernel("layer1.0.conv1+fused");
    const int a = r.engine.createChannel("a");
    const int b = r.engine.createChannel("b");
    r.engine.submit(a, &k);
    r.engine.submit(b, &k);
    r.eq.runUntil(sim::msec(10));

    const std::string doc = trace.json();
    EXPECT_EQ(doc.front(), '{');
    EXPECT_EQ(doc.back(), '}');
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("layer1.0.conv1+fused"), std::string::npos);
    EXPECT_NE(doc.find("\"tid\":0"), std::string::npos);
    EXPECT_NE(doc.find("\"tid\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"precision\":\"fp16\""), std::string::npos);

    // Balanced braces (cheap structural check).
    int depth = 0;
    for (char c : doc) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(ChromeTrace, EmptyTraceIsStillValid)
{
    Rig r;
    ChromeTraceExporter trace(r.engine);
    const std::string doc = trace.json();
    EXPECT_NE(doc.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(ChromeTrace, DetachStopsCapture)
{
    Rig r;
    ChromeTraceExporter trace(r.engine);
    trace.attach();
    const auto k = kernel("k");
    const int ch = r.engine.createChannel("p");
    r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(10));
    trace.detach();
    r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(20));
    EXPECT_EQ(trace.eventCount(), 1u);
}

TEST(ChromeTrace, ClearDropsEvents)
{
    Rig r;
    ChromeTraceExporter trace(r.engine);
    trace.attach();
    const auto k = kernel("k");
    const int ch = r.engine.createChannel("p");
    r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(10));
    trace.clear();
    EXPECT_EQ(trace.eventCount(), 0u);
}

TEST(ChromeTrace, WritesFile)
{
    Rig r;
    ChromeTraceExporter trace(r.engine);
    trace.attach();
    const auto k = kernel("k");
    const int ch = r.engine.createChannel("p");
    r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(10));

    const std::string path = "/tmp/jetsim_trace_test.json";
    ASSERT_TRUE(trace.writeFile(path));
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, trace.json());
    std::remove(path.c_str());
}

} // namespace
} // namespace jetsim::prof
