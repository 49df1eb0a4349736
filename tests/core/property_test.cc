/**
 * @file
 * Property-style invariants swept over the experiment grid with
 * parameterized tests: results must stay physical for every cell.
 */

#include "core/profiler.hh"

#include <gtest/gtest.h>

#include <ostream>

#include "soc/device_spec.hh"

namespace jetsim::core {
namespace {

struct Cell
{
    const char *device;
    const char *model;
    soc::Precision precision;
    int batch;
    int procs;

    // gtest prints parameters into the test names; printing the bare
    // pointers would put load addresses (different on every run) in
    // them.
    friend void
    PrintTo(const Cell &c, std::ostream *os)
    {
        *os << c.device << '_' << c.model << '_' << soc::name(c.precision)
            << "_b" << c.batch << "_p" << c.procs;
    }
};

ExperimentResult
run(const Cell &c, Phase phase = Phase::Light)
{
    ExperimentSpec s;
    s.device = c.device;
    s.model = c.model;
    s.precision = c.precision;
    s.batch = c.batch;
    s.processes = c.procs;
    s.phase = phase;
    s.warmup = sim::msec(200);
    s.duration = sim::sec(1);
    return runExperiment(s);
}

class GridInvariants : public ::testing::TestWithParam<Cell>
{
};

TEST_P(GridInvariants, PhysicalBounds)
{
    const auto r = run(GetParam());
    const auto dev = soc::deviceByName(r.spec.device);

    if (!r.all_deployed) {
        EXPECT_LT(r.deployed_count, r.spec.processes);
        return;
    }

    // SoC level.
    EXPECT_GT(r.total_throughput, 0.0);
    EXPECT_GE(r.avg_power_w, dev.power.idle_w - 0.01);
    EXPECT_LE(r.max_power_w, dev.power.cap_w + 0.4);

    // GPU level.
    EXPECT_GE(r.gpu_util_pct, 0.0);
    EXPECT_LE(r.gpu_util_pct, 100.0001);
    EXPECT_GT(r.mem_pct, 0.0);
    EXPECT_LE(r.mem_pct, 100.0);
    EXPECT_GE(r.final_freq_frac,
              dev.gpu.min_freq_ghz / dev.gpu.max_freq_ghz - 1e-9);
    EXPECT_LE(r.final_freq_frac, 1.0);

    // Kernel level.
    EXPECT_GT(r.mean.ec_ms, 0.0);
    EXPECT_GE(r.mean.blocking_ms_per_ec, 0.0);
    EXPECT_GE(r.mean.launch_ms_per_ec, 0.0);
    EXPECT_LT(r.mean.launch_ms_per_ec, r.mean.ec_ms);

    // EC period and throughput must cohere:
    // throughput = processes * batch / EC.
    const double implied =
        r.spec.processes * r.spec.batch / (r.mean.ec_ms / 1e3);
    EXPECT_NEAR(r.total_throughput, implied,
                0.25 * r.total_throughput);
}

TEST_P(GridInvariants, DeepPhaseCountersInRange)
{
    const auto r = run(GetParam(), Phase::Deep);
    if (!r.all_deployed)
        return;
    ASSERT_FALSE(r.sm_active.empty());
    EXPECT_GE(r.sm_active.min(), 0.0);
    EXPECT_LE(r.sm_active.max(), 100.0);
    EXPECT_GE(r.issue_slot.min(), 0.0);
    // Paper: issue-slot utilisation never exceeds ~80 %.
    EXPECT_LE(r.issue_slot.max(), 85.0);
    EXPECT_GE(r.tc_util.min(), 0.0);
    EXPECT_LE(r.tc_util.max(), 100.0);
    const auto dev = soc::deviceByName(r.spec.device);
    if (!dev.gpu.hasTensorCores()) {
        EXPECT_DOUBLE_EQ(r.tc_util.max(), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, GridInvariants,
    ::testing::Values(
        Cell{"orin-nano", "resnet50", soc::Precision::Int8, 1, 1},
        Cell{"orin-nano", "resnet50", soc::Precision::Fp32, 4, 2},
        Cell{"orin-nano", "fcn_resnet50", soc::Precision::Tf32, 1, 1},
        Cell{"orin-nano", "fcn_resnet50", soc::Precision::Int8, 2, 4},
        Cell{"orin-nano", "yolov8n", soc::Precision::Int8, 8, 1},
        Cell{"orin-nano", "yolov8n", soc::Precision::Fp16, 1, 8},
        Cell{"nano", "resnet50", soc::Precision::Fp16, 2, 2},
        Cell{"nano", "resnet50", soc::Precision::Int8, 1, 1},
        Cell{"nano", "yolov8n", soc::Precision::Fp16, 4, 1},
        Cell{"nano", "fcn_resnet50", soc::Precision::Fp16, 1, 4}));

/** Monotonicity sweeps. */
TEST(Monotonicity, MemoryGrowsWithProcesses)
{
    double prev = 0.0;
    for (int procs : {1, 2, 4}) {
        const auto r = run(Cell{"orin-nano", "yolov8n",
                                soc::Precision::Int8, 1, procs});
        EXPECT_GT(r.workload_mem_mb, prev);
        prev = r.workload_mem_mb;
    }
}

TEST(Monotonicity, MemoryGrowsWithBatch)
{
    double prev = 0.0;
    for (int batch : {1, 4, 16}) {
        const auto r = run(Cell{"orin-nano", "yolov8n",
                                soc::Precision::Int8, batch, 1});
        EXPECT_GT(r.workload_mem_mb, prev);
        prev = r.workload_mem_mb;
    }
}

TEST(Monotonicity, ThroughputPerProcessFallsWithProcesses)
{
    double prev = 1e18;
    for (int procs : {1, 2, 4, 8}) {
        const auto r = run(Cell{"orin-nano", "resnet50",
                                soc::Precision::Int8, 1, procs});
        EXPECT_LT(r.throughput_per_process, prev);
        prev = r.throughput_per_process;
    }
}

TEST(Monotonicity, ThroughputPerProcessRisesWithBatch)
{
    // Non-decreasing (within noise), with a real overall gain: the
    // paper's batch benefit plateaus at the high end.
    double first = 0.0, prev = 0.0;
    for (int batch : {1, 4, 16}) {
        const auto r = run(Cell{"orin-nano", "yolov8n",
                                soc::Precision::Int8, batch, 1});
        if (batch == 1)
            first = r.throughput_per_process;
        EXPECT_GE(r.throughput_per_process, prev * 0.97);
        prev = r.throughput_per_process;
    }
    EXPECT_GT(prev, 1.1 * first);
}

TEST(Monotonicity, EcDurationGrowsWithProcesses)
{
    double prev = 0.0;
    for (int procs : {1, 2, 4, 8}) {
        const auto r = run(Cell{"orin-nano", "resnet50",
                                soc::Precision::Int8, 1, procs});
        EXPECT_GT(r.mean.ec_ms, prev);
        prev = r.mean.ec_ms;
    }
}

} // namespace
} // namespace jetsim::core
