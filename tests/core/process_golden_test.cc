/**
 * @file
 * Golden digests of the inference process loop: literal
 * core::resultDigest / jetmc logical-digest values for a handful of
 * cells chosen to cover every path of workload::InferenceProcess's
 * closed loop — spin-wait under CPU oversubscription (the paper's S7
 * blocking regime) in phase 2, a deployment that runs out of memory,
 * no pre-enqueue, two co-located workloads, and a bounded
 * blocking-sync deployment that drains. RunnerGolden compares thread
 * counts against each other inside one process; these literals pin
 * the values themselves, so any change to the loop that moves a
 * result fails here. Regenerate only when the model legitimately
 * changes (the failure message prints the new value).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

#include "check/reporter.hh"
#include "core/digest.hh"
#include "core/profiler.hh"
#include "mc/deployment.hh"

namespace jetsim {
namespace {

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

core::ExperimentSpec
shortSpec(const std::string &device, const std::string &model,
          soc::Precision precision, int processes)
{
    core::ExperimentSpec s;
    s.device = device;
    s.model = model;
    s.precision = precision;
    s.processes = processes;
    s.warmup = sim::msec(100);
    s.duration = sim::msec(300);
    return s;
}

TEST(ProcessGolden, DeepSpinCellOversubscribed)
{
    check::ScopedCapture cap;
    auto s = shortSpec("orin-nano", "resnet50", soc::Precision::Int8, 8);
    s.phase = core::Phase::Deep;
    EXPECT_EQ(hex(core::resultDigest(core::runExperiment(s))),
              "d98b426b95c9bbd5");
    EXPECT_EQ(cap.total(), 0u);
}

TEST(ProcessGolden, NanoFcnOutOfMemory)
{
    check::ScopedCapture cap;
    const auto s =
        shortSpec("nano", "fcn_resnet50", soc::Precision::Fp16, 4);
    const auto r = core::runExperiment(s);
    EXPECT_FALSE(r.all_deployed);
    EXPECT_EQ(hex(core::resultDigest(r)), "ab756c06ce578e54");
    EXPECT_EQ(cap.total(), 0u);
}

TEST(ProcessGolden, NoPreEnqueue)
{
    check::ScopedCapture cap;
    auto s = shortSpec("orin-nano", "resnet50", soc::Precision::Fp16, 2);
    s.batch = 4;
    s.pre_enqueue = 0;
    EXPECT_EQ(hex(core::resultDigest(core::runExperiment(s))),
              "a648a7eaa982fa50");
    EXPECT_EQ(cap.total(), 0u);
}

TEST(ProcessGolden, TwoWorkloadMix)
{
    check::ScopedCapture cap;
    core::MixedExperimentSpec s;
    s.device = "orin-nano";
    s.workloads = {{"resnet50", soc::Precision::Int8, 1, 2},
                   {"yolov8n", soc::Precision::Fp16, 2, 1}};
    s.warmup = sim::msec(100);
    s.duration = sim::msec(300);
    EXPECT_EQ(hex(core::resultDigest(core::runMixedExperiment(s))),
              "0cf26485a24dc1c1");
    EXPECT_EQ(cap.total(), 0u);
}

TEST(ProcessGolden, BoundedBlockingSyncDeployment)
{
    // `jetmc --procs=2 --max-ecs=2`: two resnet50/fp16 processes,
    // blocking sync, two ECs each, drained to quiescence.
    mc::DeployConfig dc;
    dc.max_ecs = 2;
    dc.procs.resize(2);
    mc::DeploymentModel m(dc);
    const auto out = m.run({});
    EXPECT_FALSE(out.deadlock);
    EXPECT_FALSE(out.bound_exceeded);
    EXPECT_EQ(hex(out.digest), "fc787c3da506faf7");
}

} // namespace
} // namespace jetsim
