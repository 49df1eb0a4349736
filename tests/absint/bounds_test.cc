/**
 * @file
 * Static bound structure tests: interval membership, analyzability
 * guards (unknown device/model, spatial sharing), the shape of the
 * per-process intervals, memory exactness for the deployment program,
 * and monotonicity under the ablation switches.
 */

#include "absint/bounds.hh"

#include <gtest/gtest.h>

namespace jetsim::absint {
namespace {

TEST(Interval, Algebra)
{
    const Interval a{1.0, 3.0};
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(a.contains(1.0));
    EXPECT_TRUE(a.contains(3.0));
    EXPECT_FALSE(a.contains(3.5));
    EXPECT_TRUE(a.contains(3.4, 0.5)); // slack
    EXPECT_DOUBLE_EQ(a.width(), 2.0);
}

core::ExperimentSpec
baseSpec()
{
    core::ExperimentSpec s;
    s.device = "orin-nano";
    s.model = "resnet50";
    s.processes = 2;
    s.warmup = sim::msec(200);
    s.duration = sim::msec(1000);
    return s;
}

TEST(Bounds, RejectsUnknownDevice)
{
    auto s = baseSpec();
    s.device = "xavier-nx"; // not in the device table
    const auto b = analyze(s);
    EXPECT_FALSE(b.ok);
    EXPECT_NE(b.error.find("device"), std::string::npos);
}

TEST(Bounds, RejectsUnknownModel)
{
    auto s = baseSpec();
    s.model = "vit_h14";
    const auto b = analyze(s);
    EXPECT_FALSE(b.ok);
}

TEST(Bounds, RefusesSpatialSharing)
{
    // No sound serialization bound exists under hypothetical MPS;
    // the analyzer must refuse rather than guess.
    auto s = baseSpec();
    s.spatial_sharing = true;
    const auto b = analyze(s);
    EXPECT_FALSE(b.ok);
    EXPECT_NE(b.error.find("spatial"), std::string::npos);
}

TEST(Bounds, RejectsDegenerateCounts)
{
    auto s = baseSpec();
    s.processes = 0;
    EXPECT_FALSE(analyze(s).ok);
    s = baseSpec();
    s.batch = 0;
    EXPECT_FALSE(analyze(s).ok);
    s = baseSpec();
    s.pre_enqueue = -1;
    EXPECT_FALSE(analyze(s).ok);
}

TEST(Bounds, IntervalShapeIsWellFormed)
{
    const auto b = analyze(baseSpec());
    ASSERT_TRUE(b.ok) << b.error;
    ASSERT_EQ(b.procs.size(), 2u);
    EXPECT_FALSE(b.kernels.empty());
    for (const auto &k : b.kernels) {
        EXPECT_GT(k.ms.lo, 0.0);
        EXPECT_LE(k.ms.lo, k.ms.hi);
    }
    for (const auto &p : b.procs) {
        EXPECT_GT(p.kernels_per_ec, 0);
        EXPECT_EQ(p.queue_depth_hi,
                  (1 + b.pre_enqueue) * p.kernels_per_ec);
        EXPECT_TRUE(p.gpu_ec_ms.valid());
        EXPECT_GT(p.gpu_ec_ms.lo, 0.0);
        EXPECT_TRUE(p.latency_ms.valid());
        EXPECT_TRUE(p.period_ms.valid());
        EXPECT_TRUE(p.throughput_fps.valid());
        EXPECT_GT(p.blocking_ms_hi, 0.0);
        // The pipeline span contains the run-alone GPU time.
        EXPECT_LE(p.latency_ms.lo, p.gpu_ec_ms.lo + 1e-9);
        EXPECT_GE(p.latency_ms.hi, p.gpu_ec_ms.hi);
    }
    EXPECT_GT(b.mean_throughput_hi_fps, 0.0);
}

TEST(Bounds, DeploymentMemoryIsExact)
{
    // Every process's runtime + engine allocation is resident at once
    // in every schedule, so the high-water is the whole sum (jetlint
    // D001's): one process's share per process, exactly.
    auto s = baseSpec();
    s.processes = 1;
    const auto one = analyze(s);
    const auto b = analyze(baseSpec());
    ASSERT_TRUE(one.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_GT(one.mem_mib, 0.0);
    EXPECT_EQ(b.mem_mib, 2 * one.mem_mib);
    EXPECT_LT(b.mem_mib, b.available_mib);
    EXPECT_FALSE(b.oom);
}

TEST(Bounds, ProvesOomWhenEngineSumsPastBudget)
{
    core::ExperimentSpec s;
    s.device = "nano"; // 4 GiB board
    s.model = "fcn_resnet50";
    s.processes = 4;
    const auto b = analyze(s);
    ASSERT_TRUE(b.ok);
    EXPECT_TRUE(b.oom);
    EXPECT_GT(b.mem_mib, b.available_mib);
}

TEST(Bounds, DvfsWidensOnlyTheUpperBound)
{
    auto s = baseSpec();
    s.dvfs = false;
    const auto pinned = analyze(s);
    s.dvfs = true;
    const auto governed = analyze(s);
    ASSERT_TRUE(pinned.ok && governed.ok);
    // The governor can only lower the clock: run-alone lower bounds
    // coincide (max frequency), upper bounds grow.
    EXPECT_DOUBLE_EQ(pinned.procs[0].gpu_ec_ms.lo,
                     governed.procs[0].gpu_ec_ms.lo);
    EXPECT_LE(pinned.procs[0].gpu_ec_ms.hi,
              governed.procs[0].gpu_ec_ms.hi);
}

TEST(Bounds, DeepPhaseOnlyInflatesUpperBounds)
{
    auto s = baseSpec();
    const auto light = analyze(s);
    s.phase = core::Phase::Deep;
    const auto deep = analyze(s);
    ASSERT_TRUE(light.ok && deep.ok);
    EXPECT_DOUBLE_EQ(light.procs[0].gpu_ec_ms.lo,
                     deep.procs[0].gpu_ec_ms.lo);
    EXPECT_GT(deep.procs[0].gpu_ec_ms.hi,
              light.procs[0].gpu_ec_ms.hi);
    EXPECT_GE(deep.procs[0].latency_ms.hi,
              light.procs[0].latency_ms.hi);
}

TEST(Bounds, MixedSpecNamesMatchTheProfiler)
{
    core::MixedExperimentSpec s;
    s.device = "orin-nano";
    s.workloads.push_back({"resnet50", soc::Precision::Int8, 1, 2});
    s.workloads.push_back({"yolov8n", soc::Precision::Fp16, 4, 1});
    const auto b = analyze(s);
    ASSERT_TRUE(b.ok) << b.error;
    ASSERT_EQ(b.procs.size(), 3u);
    EXPECT_EQ(b.procs[0].name, "resnet50/int8.0");
    EXPECT_EQ(b.procs[1].name, "resnet50/int8.1");
    EXPECT_EQ(b.procs[2].name, "yolov8n/fp16.0");
    EXPECT_EQ(b.procs[2].workload, 1);
}

TEST(Bounds, MoreContendersNeverTightenTheEnvelope)
{
    auto s = baseSpec();
    s.processes = 1;
    const auto solo = analyze(s);
    s.processes = 4;
    const auto packed = analyze(s);
    ASSERT_TRUE(solo.ok && packed.ok);
    EXPECT_LE(solo.procs[0].latency_ms.hi,
              packed.procs[0].latency_ms.hi);
    EXPECT_LE(solo.procs[0].blocking_ms_hi,
              packed.procs[0].blocking_ms_hi);
}

TEST(Bounds, AdversarialBlockingDominatesTheFifoBound)
{
    const auto b = analyze(baseSpec());
    ASSERT_TRUE(b.ok);
    const double adv = adversarialBlockingHiMs(b, 0, 2);
    EXPECT_GT(adv, b.procs[0].blocking_ms_hi);
    // More in-flight ECs give the adversary more work to steal.
    EXPECT_GE(adversarialBlockingHiMs(b, 0, 4), adv);
}

} // namespace
} // namespace jetsim::absint
