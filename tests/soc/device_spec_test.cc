/**
 * @file
 * Checks the device factories against the paper's Table 1 and the
 * derived architectural peaks.
 */

#include "soc/device_spec.hh"

#include <gtest/gtest.h>

#include "sim/json.hh"

namespace jetsim::soc {
namespace {

TEST(DeviceSpec, OrinNanoMatchesTable1)
{
    const DeviceSpec d = orinNano();
    EXPECT_EQ(d.name, "orin-nano");
    EXPECT_EQ(d.totalCores(), 6);               // 6-core A78AE
    EXPECT_EQ(d.bigCores(), 3);                 // 3 heavy-load cores
    EXPECT_EQ(d.gpu.totalCudaCores(), 1024);    // 1024-core Ampere
    EXPECT_EQ(d.gpu.totalTensorCores(), 32);    // 32 tensor cores
    EXPECT_EQ(d.memory.total, 8 * sim::kGiB);   // 8 GB unified
    EXPECT_DOUBLE_EQ(d.power.cap_w, 7.0);       // 7-15 W mode
    EXPECT_TRUE(d.gpu.hasTensorCores());
}

TEST(DeviceSpec, JetsonNanoMatchesTable1)
{
    const DeviceSpec d = jetsonNano();
    EXPECT_EQ(d.name, "nano");
    EXPECT_EQ(d.totalCores(), 4);               // 4-core A57
    EXPECT_EQ(d.bigCores(), 2);                 // 2 heavy-load cores
    EXPECT_EQ(d.gpu.totalCudaCores(), 128);     // 128-core Maxwell
    EXPECT_EQ(d.gpu.totalTensorCores(), 0);     // no tensor cores
    EXPECT_EQ(d.memory.total, 4 * sim::kGiB);   // 4 GB unified
    EXPECT_DOUBLE_EQ(d.power.cap_w, 5.0);       // 5-10 W mode
    EXPECT_FALSE(d.gpu.hasTensorCores());
}

TEST(DeviceSpec, PeakCudaRateFollowsGeometry)
{
    const DeviceSpec d = orinNano();
    // 1024 cores x 2 FLOP x 0.625 GHz = 1280 GFLOPS.
    EXPECT_NEAR(d.gpu.peakCudaGflopsFp32(), 1280.0, 1.0);
}

TEST(DeviceSpec, PeakTcRatesScaleByPrecision)
{
    const GpuSpec &g = orinNano().gpu;
    const double fp16 = g.peakTcGflops(Precision::Fp16);
    EXPECT_GT(fp16, 0.0);
    EXPECT_DOUBLE_EQ(g.peakTcGflops(Precision::Int8), 2.0 * fp16);
    EXPECT_DOUBLE_EQ(g.peakTcGflops(Precision::Tf32), 0.5 * fp16);
    EXPECT_DOUBLE_EQ(g.peakTcGflops(Precision::Fp32), 0.0);
}

TEST(DeviceSpec, NanoHasNoTcPath)
{
    const GpuSpec &g = jetsonNano().gpu;
    for (Precision p : kAllPrecisions)
        EXPECT_DOUBLE_EQ(g.peakTcGflops(p), 0.0);
}

TEST(DeviceSpec, EffectiveRatesNeverExceedPeaks)
{
    for (const auto &d : {orinNano(), jetsonNano(), cloudA40()}) {
        const GpuSpec &g = d.gpu;
        if (g.hasTensorCores()) {
            EXPECT_LE(g.eff_tc_gflops_int8,
                      g.peakTcGflops(Precision::Int8));
            EXPECT_LE(g.eff_tc_gflops_fp16,
                      g.peakTcGflops(Precision::Fp16));
        }
        EXPECT_LE(g.eff_cuda_gflops_fp32, g.peakCudaGflopsFp32());
    }
}

TEST(DeviceSpec, PrecisionCoverageReflectsArchitecture)
{
    const DeviceSpec orin = orinNano();
    for (Precision p : kAllPrecisions)
        EXPECT_DOUBLE_EQ(orin.precisionCoverage(p), 1.0);

    const DeviceSpec nano = jetsonNano();
    EXPECT_LT(nano.precisionCoverage(Precision::Int8), 0.5);
    EXPECT_DOUBLE_EQ(nano.precisionCoverage(Precision::Tf32), 0.0);
    EXPECT_DOUBLE_EQ(nano.precisionCoverage(Precision::Fp16), 1.0);
}

TEST(DeviceSpec, AvailableMemoryExcludesOsShare)
{
    const DeviceSpec d = jetsonNano();
    EXPECT_EQ(d.availableMemory(),
              d.memory.total - d.memory.os_reserved);
    EXPECT_LT(d.availableMemory(), d.memory.total);
}

TEST(DeviceSpec, LookupByNameRoundTrips)
{
    EXPECT_EQ(deviceByName("orin-nano").name, "orin-nano");
    EXPECT_EQ(deviceByName("nano").name, "nano");
    EXPECT_EQ(deviceByName("a40").name, "a40");
}

TEST(DeviceSpec, NanoFastFp16CudaPathExists)
{
    // GM20B's double-rate fp16 is why fp16 wins on the Nano.
    const GpuSpec &g = jetsonNano().gpu;
    EXPECT_GT(g.eff_cuda_gflops_fp16, g.eff_cuda_gflops_fp32);
}

TEST(PrecisionNames, RoundTrip)
{
    for (Precision p : kAllPrecisions)
        EXPECT_EQ(sim::enumFromName<Precision>(name(p)), p);
    for (const char *bad : {"", "bf16", "INT8", "fp16 ", "int"})
        EXPECT_FALSE(sim::enumFromName<Precision>(bad)) << bad;
}

TEST(PrecisionStorage, MatchesFormatWidths)
{
    EXPECT_EQ(storageBytes(Precision::Int8), 1u);
    EXPECT_EQ(storageBytes(Precision::Fp16), 2u);
    EXPECT_EQ(storageBytes(Precision::Tf32), 4u);
    EXPECT_EQ(storageBytes(Precision::Fp32), 4u);
}

} // namespace
} // namespace jetsim::soc
