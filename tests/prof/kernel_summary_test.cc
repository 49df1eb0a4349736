/**
 * @file
 * KernelSummary aggregation tests.
 */

#include "prof/kernel_summary.hh"

#include <gtest/gtest.h>

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
kernel(const std::string &name, double flops, double bytes)
{
    gpu::KernelDesc k;
    k.name = name;
    k.flops = flops;
    k.bytes = bytes;
    k.prec = soc::Precision::Fp16;
    k.tc = true;
    k.blocks = 512;
    return k;
}

TEST(KernelSummary, AggregatesByName)
{
    Rig r;
    KernelSummary s(r.engine);
    s.attach();
    const auto a = kernel("a", 1e9, 1e6);
    const auto b = kernel("b", 2e9, 1e6);
    const int ch = r.engine.createChannel("p");
    r.engine.submit(ch, &a);
    r.engine.submit(ch, &a);
    r.engine.submit(ch, &b);
    r.eq.runUntil(sim::msec(50));

    EXPECT_EQ(s.totalCalls(), 3u);
    const auto rows = s.table();
    ASSERT_EQ(rows.size(), 2u);
    // b is heavier per call but a has two calls of half the work:
    // totals are comparable; check the per-name accounting instead.
    for (const auto &row : rows) {
        if (row.name == "a") {
            EXPECT_EQ(row.calls, 2u);
        }
        if (row.name == "b") {
            EXPECT_EQ(row.calls, 1u);
        }
    }
}

TEST(KernelSummary, MergesDescriptorsOfOneName)
{
    // One layer name in two engines: two descriptors, one row, with
    // their calls and time summed.
    Rig r;
    KernelSummary s(r.engine);
    s.attach();
    double conv_us = 0;
    const auto sub = r.engine.subscribe([&](const gpu::KernelRecord &rec) {
        if (rec.desc->name == "conv")
            conv_us += sim::toUsec(rec.end - rec.start);
    });
    const auto first = kernel("conv", 1e9, 1e6);
    const auto second = kernel("conv", 3e9, 1e6);
    const auto other = kernel("other", 1e8, 1e5);
    const int ch = r.engine.createChannel("p");
    r.engine.submit(ch, &first);
    r.engine.submit(ch, &second);
    r.engine.submit(ch, &other);
    r.engine.submit(ch, &second);
    r.eq.runUntil(sim::msec(50));

    EXPECT_EQ(s.totalCalls(), 4u);
    const auto rows = s.table();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "conv");
    EXPECT_EQ(rows[0].calls, 3u);
    EXPECT_GT(conv_us, 0.0);
    EXPECT_EQ(rows[0].total_us, conv_us);
    EXPECT_EQ(rows[1].name, "other");
    EXPECT_EQ(rows[1].calls, 1u);
}

TEST(KernelSummary, SharesSumToHundred)
{
    Rig r;
    KernelSummary s(r.engine);
    s.attach();
    const int ch = r.engine.createChannel("p");
    std::vector<gpu::KernelDesc> ks;
    for (int i = 0; i < 5; ++i)
        ks.push_back(kernel("k" + std::to_string(i), 1e8 * (i + 1),
                            1e6));
    for (const auto &k : ks)
        r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(50));

    double total = 0;
    for (const auto &row : s.table())
        total += row.share_pct;
    EXPECT_NEAR(total, 100.0, 1e-6);
}

TEST(KernelSummary, TableSortsByTotalTime)
{
    Rig r;
    KernelSummary s(r.engine);
    s.attach();
    const auto small = kernel("small", 1e8, 1e5);
    const auto big = kernel("big", 4e9, 1e5);
    const int ch = r.engine.createChannel("p");
    r.engine.submit(ch, &small);
    r.engine.submit(ch, &big);
    r.eq.runUntil(sim::msec(50));
    const auto rows = s.table();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "big");
}

TEST(KernelSummary, TopLimitsRows)
{
    Rig r;
    KernelSummary s(r.engine);
    s.attach();
    const int ch = r.engine.createChannel("p");
    std::vector<gpu::KernelDesc> ks;
    for (int i = 0; i < 6; ++i)
        ks.push_back(kernel("k" + std::to_string(i), 1e8, 1e5));
    for (const auto &k : ks)
        r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(50));
    EXPECT_EQ(s.table(3).size(), 3u);
    EXPECT_EQ(s.table().size(), 6u);
}

TEST(KernelSummary, BoundClassification)
{
    Rig r;
    KernelSummary s(r.engine);
    s.attach();
    const auto compute = kernel("compute", 5e9, 1e5);
    const auto memory = kernel("memory", 1e6, 2e8);
    auto latency = kernel("latency", 1e5, 1e4); // tiny: hits floor
    const int ch = r.engine.createChannel("p");
    r.engine.submit(ch, &compute);
    r.engine.submit(ch, &memory);
    r.engine.submit(ch, &latency);
    r.eq.runUntil(sim::msec(50));

    for (const auto &row : s.table()) {
        if (row.name == "compute") {
            EXPECT_EQ(row.bound, KernelBound::Compute);
        }
        if (row.name == "memory") {
            EXPECT_EQ(row.bound, KernelBound::Memory);
        }
        if (row.name == "latency") {
            EXPECT_EQ(row.bound, KernelBound::Latency);
        }
    }
}

TEST(KernelSummary, ClearResets)
{
    Rig r;
    KernelSummary s(r.engine);
    s.attach();
    const auto k = kernel("k", 1e8, 1e5);
    const int ch = r.engine.createChannel("p");
    r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(50));
    EXPECT_GT(s.totalCalls(), 0u);
    s.clear();
    EXPECT_EQ(s.totalCalls(), 0u);
    EXPECT_TRUE(s.table().empty());

    // A descriptor recorded before the clear starts a fresh row.
    r.engine.submit(ch, &k);
    r.eq.runUntil(sim::msec(100));
    const auto rows = s.table();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].calls, 1u);
}

} // namespace
} // namespace jetsim::prof
