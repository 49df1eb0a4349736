/**
 * @file
 * Kernel cost-model tests: roofline behaviour, precision paths,
 * latency floor, the derived utilisation counters, and the statics
 * block built engines carry (the same bits as the computed path,
 * retagged by any GpuSpec change).
 */

#include "gpu/cost_model.hh"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <functional>

#include "check/reporter.hh"
#include "models/zoo.hh"
#include "soc/dvfs.hh"
#include "trt/builder.hh"

namespace jetsim::gpu {
namespace {

KernelDesc
bigTcKernel(soc::Precision p = soc::Precision::Fp16)
{
    KernelDesc k;
    k.name = "conv";
    k.flops = 2e9;
    k.bytes = 4e6;
    k.prec = p;
    k.tc = true;
    k.blocks = 4096;
    k.efficiency_scale = 1.0;
    return k;
}

TEST(CostModel, ComputeBoundDurationFollowsRate)
{
    const auto spec = soc::orinNano();
    KernelCostModel m(spec);
    const auto k = bigTcKernel();
    const auto t = m.timing(k, 1.0);
    const double expect_ns = k.flops / spec.gpu.eff_tc_gflops_fp16;
    EXPECT_NEAR(static_cast<double>(t.duration), expect_ns,
                expect_ns * 0.05 +
                    static_cast<double>(KernelCostModel::kKernelOverhead));
    EXPECT_GT(t.compute_frac, 0.9);
}

TEST(CostModel, MemoryBoundKernelIgnoresComputeRate)
{
    const auto spec = soc::orinNano();
    KernelCostModel m(spec);
    KernelDesc k = bigTcKernel();
    k.flops = 1e6;   // trivial compute
    k.bytes = 100e6; // heavy traffic
    const auto t = m.timing(k, 1.0);
    const double eff_bw = spec.gpu.mem_bw_gbps * spec.gpu.mem_efficiency;
    EXPECT_NEAR(static_cast<double>(t.duration), k.bytes / eff_bw,
                k.bytes / eff_bw * 0.05 + 5e3);
    EXPECT_LT(t.compute_frac, 0.1);
    EXPECT_GT(t.bw_util, 0.5);
}

TEST(CostModel, FrequencyScalingSlowsCompute)
{
    KernelCostModel m(soc::orinNano());
    const auto k = bigTcKernel();
    const auto full = m.timing(k, 1.0);
    const auto half = m.timing(k, 0.5);
    EXPECT_NEAR(static_cast<double>(half.duration),
                2.0 * static_cast<double>(full.duration),
                static_cast<double>(full.duration) * 0.1);
}

TEST(CostModel, PrecisionOrderingOnTensorCores)
{
    KernelCostModel m(soc::orinNano());
    auto dur = [&](soc::Precision p) {
        return m.timing(bigTcKernel(p), 1.0).duration;
    };
    EXPECT_LT(dur(soc::Precision::Int8), dur(soc::Precision::Fp16));
    EXPECT_LT(dur(soc::Precision::Fp16), dur(soc::Precision::Tf32));
    EXPECT_LT(dur(soc::Precision::Tf32), dur(soc::Precision::Fp32));
}

TEST(CostModel, Fp32NeverUsesTensorCores)
{
    KernelCostModel m(soc::orinNano());
    KernelDesc k = bigTcKernel(soc::Precision::Fp32);
    const auto t = m.timing(k, 1.0);
    EXPECT_DOUBLE_EQ(t.tc_util, 0.0);
}

TEST(CostModel, NanoHasNoTcPathAndFastFp16)
{
    KernelCostModel m(soc::jetsonNano());
    KernelDesc k = bigTcKernel(soc::Precision::Fp16);
    const auto t16 = m.timing(k, 1.0);
    EXPECT_DOUBLE_EQ(t16.tc_util, 0.0);
    k.prec = soc::Precision::Fp32;
    const auto t32 = m.timing(k, 1.0);
    EXPECT_LT(t16.duration, t32.duration);
}

TEST(CostModel, LatencyFloorBindsSmallKernels)
{
    const auto spec = soc::orinNano();
    KernelCostModel m(spec);
    KernelDesc k = bigTcKernel();
    k.flops = 1e3;
    k.bytes = 1e3;
    const auto t = m.timing(k, 1.0);
    EXPECT_GE(t.duration, spec.gpu.min_kernel_latency);
}

TEST(CostModel, SmActiveReflectsGridOccupancy)
{
    KernelCostModel m(soc::orinNano()); // 8 SMs
    KernelDesc k = bigTcKernel();
    k.blocks = 8 * 100; // full waves
    EXPECT_NEAR(m.timing(k, 1.0).sm_active, 1.0, 0.01);
    k.blocks = 2; // quarter of one wave
    EXPECT_NEAR(m.timing(k, 1.0).sm_active, 0.25, 0.01);
    k.blocks = 12; // 1.5 waves: 8/8 then 4/8 -> 0.75 average
    EXPECT_NEAR(m.timing(k, 1.0).sm_active, 0.75, 0.01);
}

TEST(CostModel, CountersStayInRange)
{
    KernelCostModel m(soc::orinNano());
    sim::Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        KernelDesc k = bigTcKernel();
        k.flops = rng.uniform(1e3, 5e9);
        k.bytes = rng.uniform(1e3, 2e8);
        k.blocks = static_cast<int>(rng.uniformInt(1, 5000));
        k.efficiency_scale = rng.uniform(0.4, 2.9);
        const auto t = m.timing(k, rng.uniform(0.3, 1.0), &rng);
        EXPECT_GT(t.duration, 0);
        EXPECT_GE(t.sm_active, 0.0);
        EXPECT_LE(t.sm_active, 1.0);
        EXPECT_GE(t.issue_slot, 0.0);
        EXPECT_LE(t.issue_slot, 0.85);
        EXPECT_GE(t.tc_util, 0.0);
        EXPECT_LE(t.tc_util, 0.99);
        EXPECT_GE(t.bw_util, 0.0);
        EXPECT_LE(t.bw_util, 1.0);
    }
}

TEST(CostModel, Int8TcUtilLowerThanFp16ForMemoryBoundWork)
{
    // The paper's inversion: int8 finishes the math sooner, so its
    // TC-active fraction over the (memory-bound) duration is lower.
    KernelCostModel m(soc::orinNano());
    KernelDesc k = bigTcKernel(soc::Precision::Int8);
    k.bytes = 60e6; // memory bound either way
    const auto t8 = m.timing(k, 1.0);
    k.prec = soc::Precision::Fp16;
    k.bytes = 120e6; // same traffic scaled by element width
    const auto t16 = m.timing(k, 1.0);
    EXPECT_LT(t8.tc_util, t16.tc_util);
}

TEST(CostModel, StallFactorRaisesTcResidency)
{
    KernelCostModel m(soc::orinNano());
    KernelDesc k = bigTcKernel();
    const auto base = m.timing(k, 1.0);
    k.tc_stall_factor = 3.5;
    const auto stalled = m.timing(k, 1.0);
    EXPECT_GT(stalled.tc_util, base.tc_util);
    EXPECT_EQ(stalled.duration, base.duration);
}

TEST(CostModel, DeterministicWithoutRng)
{
    KernelCostModel m(soc::orinNano());
    const auto k = bigTcKernel();
    const auto a = m.timing(k, 0.8);
    const auto b = m.timing(k, 0.8);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_DOUBLE_EQ(a.tc_util, b.tc_util);
}

TEST(CostModel, StreamAndRngDrawTheSameTimings)
{
    // Both sources of one seed over a varied run of kernels, well past
    // three block boundaries: every field of every timing is the same.
    KernelCostModel m(soc::orinNano());
    sim::Rng shapes(3), rng(11);
    auto draws = KernelCostModel::jitterStream(sim::Rng(11));
    for (int i = 0; i < 5 * sim::kDrawBlock + 3; ++i) {
        KernelDesc k = bigTcKernel();
        k.flops = shapes.uniform(1e3, 5e9);
        k.bytes = shapes.uniform(1e3, 2e8);
        k.blocks = static_cast<int>(shapes.uniformInt(1, 5000));
        const double f = shapes.uniform(0.3, 1.0);
        const auto a = m.timing(k, f, &draws);
        const auto b = m.timing(k, f, &rng);
        EXPECT_EQ(a.duration, b.duration) << "kernel " << i;
        EXPECT_EQ(a.sm_active, b.sm_active) << "kernel " << i;
        EXPECT_EQ(a.issue_slot, b.issue_slot) << "kernel " << i;
        EXPECT_EQ(a.tc_util, b.tc_util) << "kernel " << i;
        EXPECT_EQ(a.bw_util, b.bw_util) << "kernel " << i;
        EXPECT_EQ(a.compute_frac, b.compute_frac) << "kernel " << i;
    }
}

TEST(CostModel, EfficiencyScaleIsCappedNearPeak)
{
    const auto spec = soc::orinNano();
    KernelCostModel m(spec);
    KernelDesc k = bigTcKernel();
    k.efficiency_scale = 100.0; // absurd tactic quality
    const auto t = m.timing(k, 1.0);
    const double floor_ns =
        k.flops / (0.95 * spec.gpu.peakTcGflops(k.prec));
    EXPECT_GE(static_cast<double>(t.duration), floor_ns);
}

// ---------------------------------------------------- statics block

/** A timing's every field, by bit pattern. */
std::array<std::uint64_t, 6>
bits(const KernelTiming &t)
{
    return {static_cast<std::uint64_t>(t.duration),
            std::bit_cast<std::uint64_t>(t.sm_active),
            std::bit_cast<std::uint64_t>(t.issue_slot),
            std::bit_cast<std::uint64_t>(t.tc_util),
            std::bit_cast<std::uint64_t>(t.bw_util),
            std::bit_cast<std::uint64_t>(t.compute_frac)};
}

/** @p k with its statics block cleared: the computed path. */
KernelDesc
withoutBlock(const KernelDesc &k)
{
    KernelDesc c = k;
    c.statics = {};
    return c;
}

trt::Engine
buildFor(const soc::DeviceSpec &spec, const std::string &model,
         soc::Precision p, int batch = 1)
{
    return trt::Builder(spec).build(models::modelByName(model),
                                    trt::BuilderConfig{p, batch});
}

TEST(KernelStatics, BlockPathMatchesComputedPathOverTheZoo)
{
    // Every zoo model at every precision on both boards, timed at each
    // DVFS level's frequency fraction as the governor computes it,
    // with a seeded jitter source and without one.
    check::ScopedCapture cap;
    std::uint64_t calls = 0;
    for (const auto &spec : {soc::orinNano(), soc::jetsonNano()}) {
        const KernelCostModel m(spec);
        const auto tag = KernelCostModel::gpuTag(spec.gpu);
        for (const auto &model : models::allModelNames()) {
            for (const auto p : soc::kAllPrecisions) {
                const auto e = buildFor(spec, model, p);
                for (int level = 0; level < spec.gpu.dvfs_levels;
                     ++level) {
                    const double f = soc::DvfsGovernor::levelFreqFrac(
                        spec.gpu, level);
                    auto block_draws = KernelCostModel::jitterStream(
                        sim::Rng(0xb10c + level));
                    auto computed_draws = KernelCostModel::jitterStream(
                        sim::Rng(0xb10c + level));
                    for (const auto &k : e.kernels()) {
                        ASSERT_EQ(k.statics.gpu, tag) << k.name;
                        const auto c = withoutBlock(k);
                        EXPECT_EQ(bits(m.timing(k, f)),
                                  bits(m.timing(c, f)))
                            << spec.name << " " << model << " "
                            << k.name << " level " << level;
                        EXPECT_EQ(bits(m.timing(k, f, &block_draws)),
                                  bits(m.timing(c, f, &computed_draws)))
                            << spec.name << " " << model << " "
                            << k.name << " level " << level;
                        calls += 2;
                    }
                }
            }
        }
    }
    EXPECT_GT(calls, 10000u);
    EXPECT_EQ(cap.total(), 0u);
}

TEST(KernelStatics, AnyGpuFieldChangeRetagsTheBlock)
{
    const auto base = soc::orinNano().gpu;
    const auto tag = KernelCostModel::gpuTag(base);
    EXPECT_NE(tag, 0u);
    EXPECT_EQ(tag, KernelCostModel::gpuTag(soc::orinNano().gpu));
    EXPECT_NE(tag, KernelCostModel::gpuTag(soc::jetsonNano().gpu));
    EXPECT_NE(tag, KernelCostModel::gpuTag(soc::orinNano15W().gpu));

    auto retagged = [&](auto mutate) {
        auto g = base;
        mutate(g);
        return KernelCostModel::gpuTag(g);
    };

    using Gpu = soc::GpuSpec;
    EXPECT_NE(tag, retagged([](Gpu &g) { g.arch = "Maxwell"; }));
    EXPECT_NE(tag, retagged([](Gpu &g) { g.num_sms += 1; }));
    EXPECT_NE(tag, retagged([](Gpu &g) { g.cuda_cores_per_sm += 1; }));
    EXPECT_NE(tag, retagged([](Gpu &g) { g.tensor_cores_per_sm += 1; }));
    EXPECT_NE(tag, retagged([](Gpu &g) { g.max_freq_ghz += 0.001; }));
    EXPECT_NE(tag, retagged([](Gpu &g) { g.min_freq_ghz += 0.001; }));
    EXPECT_NE(tag, retagged([](Gpu &g) { g.dvfs_levels += 1; }));
    EXPECT_NE(tag, retagged([](Gpu &g) { g.mem_bw_gbps += 0.5; }));
    EXPECT_NE(tag, retagged([](Gpu &g) { g.mem_efficiency += 0.01; }));
    EXPECT_NE(tag, retagged([](Gpu &g) { g.min_kernel_latency += 1; }));
    EXPECT_NE(tag, retagged([](Gpu &g) { g.eff_tc_gflops_int8 += 1; }));
    EXPECT_NE(tag, retagged([](Gpu &g) { g.eff_tc_gflops_fp16 += 1; }));
    EXPECT_NE(tag, retagged([](Gpu &g) { g.eff_tc_gflops_tf32 += 1; }));
    EXPECT_NE(tag,
              retagged([](Gpu &g) { g.eff_cuda_gflops_fp32 += 1; }));
    EXPECT_NE(tag,
              retagged([](Gpu &g) { g.eff_cuda_gflops_fp16 += 1; }));
}

TEST(KernelStatics, AKernelBuiltForAnotherGpuTakesTheComputedPath)
{
    // Each GPU differs from orin-nano in one field that a static term
    // reads, so orin-nano's block would be wrong for it.
    const auto orin = soc::orinNano();
    const auto e = buildFor(orin, "resnet50", soc::Precision::Int8);
    using Gpu = soc::GpuSpec;
    const std::function<void(Gpu &)> changes[] = {
        [](Gpu &g) { g.num_sms = 16; },
        [](Gpu &g) { g.tensor_cores_per_sm = 1; },
        [](Gpu &g) { g.mem_bw_gbps = 34.0; },
        [](Gpu &g) { g.mem_efficiency = 0.5; },
        [](Gpu &g) { g.eff_tc_gflops_int8 *= 2.0; },
    };
    for (const auto &change : changes) {
        auto spec = orin;
        change(spec.gpu);
        const KernelCostModel m(spec);
        int stale = 0;
        for (const auto &k : e.kernels()) {
            const auto c = withoutBlock(k);
            EXPECT_EQ(bits(m.timing(k, 0.7)), bits(m.timing(c, 0.7)))
                << k.name;
            const auto own = m.statics(k);
            EXPECT_NE(own.gpu, k.statics.gpu);
            stale += own.rate != k.statics.rate ||
                     own.mem_ns != k.statics.mem_ns ||
                     own.occupancy != k.statics.occupancy;
        }
        EXPECT_GT(stale, 0);
    }
}

TEST(KernelStatics, InvalidDescriptorGetsNoBlockAndReportsEveryCall)
{
    const auto spec = soc::orinNano();
    const KernelCostModel m(spec);
    EXPECT_EQ(m.statics(bigTcKernel()).gpu,
              KernelCostModel::gpuTag(spec.gpu));

    KernelDesc k = bigTcKernel();
    k.blocks = 0;
    check::ScopedCapture cap;
    EXPECT_EQ(m.statics(k).gpu, 0u);
    EXPECT_EQ(cap.total(), 0u); // statics() itself reports nothing
    k.statics = m.statics(k);
    m.timing(k, 1.0);
    m.timing(k, 1.0);
    EXPECT_EQ(cap.count(check::Invariant::Plausibility), 2u);

    // A negative zero passes the checks but sanitises to +0.0, which
    // the block path would not see.
    KernelDesc z = bigTcKernel();
    z.bytes = -0.0;
    EXPECT_EQ(m.statics(z).gpu, 0u);
}

} // namespace
} // namespace jetsim::gpu
