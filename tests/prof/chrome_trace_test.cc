/**
 * @file
 * Chrome-trace exporter tests.
 */

#include "prof/chrome_trace.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "soc/board.hh"

namespace jetsim::prof {
namespace {

/** @name The trace document's shape, to read json() back through the
 * JSON codec (sim/json.hh).
 * @{ */
struct TraceArgs
{
    std::string precision;
    bool tensor_cores = false;
};

template <class V, sim::FieldsOf<TraceArgs> S>
void
visitFields(V &v, S &a)
{
    v("precision", a.precision);
    v("tensor_cores", a.tensor_cores);
}

struct TraceEvent
{
    std::string name, ph;
    double ts = 0, dur = 0;
    int pid = 0, tid = 0;
    TraceArgs args;
};

template <class V, sim::FieldsOf<TraceEvent> S>
void
visitFields(V &v, S &e)
{
    v("name", e.name);
    v("ph", e.ph);
    v("ts", e.ts);
    v("dur", e.dur);
    v("pid", e.pid);
    v("tid", e.tid);
    v("args", e.args);
}

struct TraceDoc
{
    std::vector<TraceEvent> traceEvents;
    std::string displayTimeUnit;
};

template <class V, sim::FieldsOf<TraceDoc> S>
void
visitFields(V &v, S &d)
{
    v("traceEvents", d.traceEvents);
    v("displayTimeUnit", d.displayTimeUnit);
}
/** @} */

/** Decode a json() document. The codec reads tagged documents only,
 * so tag it first. */
TraceDoc
decode(const std::string &doc)
{
    TraceDoc t;
    std::string err;
    EXPECT_EQ(doc.rfind("{\"traceEvents\":", 0), 0u) << doc;
    EXPECT_TRUE(sim::fromJson("{\"trace\":1," + doc.substr(1), "trace", 1,
                              t, err))
        << err << "\n"
        << doc;
    return t;
}

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

TEST(ChromeTrace, TimestampsKeepEveryDigit)
{
    // Two back-to-back kernels after 1.5 s: a timestamp printed with
    // six significant digits would lose the microseconds.
    Rig r;
    ChromeTraceExporter trace(r.engine);
    trace.attach();
    const auto k = kernel("late");
    std::vector<sim::Tick> ends;
    const int ch = r.engine.createChannel(
        "p0", [&] { ends.push_back(r.eq.now()); });
    r.eq.runUntil(sim::msec(1500));
    r.engine.submit(ch, &k);
    r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(1600));

    const auto doc = decode(trace.json());
    ASSERT_EQ(doc.traceEvents.size(), 2u);
    ASSERT_EQ(ends.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const auto &e = doc.traceEvents[i];
        const sim::Tick start = std::llround(e.ts * 1e3);
        const sim::Tick dur = std::llround(e.dur * 1e3);
        EXPECT_GE(start, sim::msec(1500));
        EXPECT_EQ(e.ts, sim::toUsec(start)) << i;
        EXPECT_EQ(e.dur, sim::toUsec(dur)) << i;
        EXPECT_EQ(start + dur, ends[i]) << i;
    }
}

TEST(ChromeTrace, NamesAreEscaped)
{
    Rig r;
    ChromeTraceExporter trace(r.engine);
    trace.attach();
    const auto k = kernel("say \"hi\" \\ there");
    const int ch = r.engine.createChannel("p0");
    r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(10));

    const auto doc = decode(trace.json());
    ASSERT_EQ(doc.traceEvents.size(), 1u);
    const auto &e = doc.traceEvents[0];
    EXPECT_EQ(e.name, "say \"hi\" \\ there");
    EXPECT_EQ(e.ph, "X");
    EXPECT_EQ(e.tid, ch);
    EXPECT_EQ(e.args.precision, "fp16");
    EXPECT_TRUE(e.args.tensor_cores);
    EXPECT_EQ(doc.displayTimeUnit, "ms");
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
