/**
 * @file
 * The jetbound soundness harness — the tentpole property of the
 * static analyzer: for every zoo model x board x 1..4-process
 * configuration, every value the simulator measures lands inside the
 * statically derived interval (lo <= sim <= hi), the static memory
 * verdict agrees with the deployment outcome, the per-channel queue
 * depth never exceeds the static cap, and jetmc's schedule-space
 * worst-case blocking stays below the adversarial static bound.
 *
 * These are not calibration checks: analyze() never runs the
 * simulator, so any containment failure is a genuine unsoundness in
 * the abstract domain (or a simulator mechanism the domain does not
 * dominate) and must fail loudly.
 */

#include <gtest/gtest.h>

#include "absint/bounds.hh"
#include "core/profiler.hh"
#include "gpu/engine.hh"
#include "mc/deployment.hh"
#include "mc/explorer.hh"
#include "models/zoo.hh"
#include "soc/device_spec.hh"
#include "workload/inference_process.hh"

namespace jetsim::absint {
namespace {

/** Slack for double accumulation across thousands of samples. */
bool
inside(double v, const Interval &iv)
{
    return iv.contains(v, 1e-6 * std::max(1.0, iv.hi) + 1e-9);
}

void
checkSound(const core::ExperimentSpec &spec)
{
    SCOPED_TRACE(spec.label());
    const auto b = analyze(spec);
    ASSERT_TRUE(b.ok) << b.error;
    const auto res = core::runExperiment(spec);

    // The memory bound is the exact resident sum, so the static OOM
    // verdict must equal the simulated outcome.
    EXPECT_EQ(res.all_deployed, !b.oom);
    if (!res.all_deployed)
        return;
    EXPECT_TRUE(inside(res.workload_mem_mb, {b.mem_mib, b.mem_mib}))
        << res.workload_mem_mb << " vs " << b.mem_mib;
    EXPECT_LE(res.throughput_per_process,
              b.mean_throughput_hi_fps *
                  (1.0 + 1e-6)); // mean per-process cap

    ASSERT_EQ(res.procs.size(), b.procs.size());
    for (std::size_t i = 0; i < res.procs.size(); ++i) {
        const auto &m = res.procs[i];
        const auto &pb = b.procs[i];
        ASSERT_EQ(m.name, pb.name);
        if (!m.deployed)
            continue;
        SCOPED_TRACE(m.name);
        if (m.ecs >= 1) {
            EXPECT_TRUE(inside(m.pipeline_ms, pb.latency_ms))
                << m.pipeline_ms << " vs " << pb.latency_ms.str();
            EXPECT_LE(m.blocking_ms_per_ec,
                      pb.blocking_ms_hi * (1.0 + 1e-6));
        }
        if (m.ecs >= 2) { // the period needs two completions
            EXPECT_TRUE(inside(m.ec_ms, pb.period_ms))
                << m.ec_ms << " vs " << pb.period_ms.str();
        }
        EXPECT_TRUE(inside(m.throughput, pb.throughput_fps))
            << m.throughput << " vs " << pb.throughput_fps.str();
    }
}

core::ExperimentSpec
cell(const std::string &device, const std::string &model, int procs)
{
    core::ExperimentSpec s;
    s.device = device;
    s.model = model;
    s.processes = procs;
    s.warmup = sim::msec(200);
    s.duration = sim::msec(1000);
    return s;
}

/** The full acceptance grid: zoo x {orin-nano, nano} x 1..4 procs. */
TEST(Soundness, EveryZooModelOnOrinNano)
{
    for (const auto &model : models::allModelNames())
        for (int procs = 1; procs <= 4; ++procs)
            checkSound(cell("orin-nano", model, procs));
}

TEST(Soundness, EveryZooModelOnNano)
{
    for (const auto &model : models::allModelNames())
        for (int procs = 1; procs <= 4; ++procs)
            checkSound(cell("nano", model, procs));
}

TEST(Soundness, AblationCorners)
{
    auto s = cell("orin-nano", "yolov8n", 3);
    s.phase = core::Phase::Deep; // Nsight intrusion in the bounds
    checkSound(s);

    s = cell("orin-nano", "resnet18", 2);
    s.dvfs = false; // pinned clock
    s.batch = 4;
    checkSound(s);

    s = cell("nano", "mobilenet_v2", 4);
    s.pre_enqueue = 0; // ablation A1: no pipelining
    checkSound(s);

    s = cell("orin-nano", "resnet50", 2);
    s.pre_enqueue = 3;
    s.batch = 8;
    s.seed = 7;
    checkSound(s);
}

TEST(Soundness, QueueDepthNeverExceedsTheStaticCap)
{
    // Drive the engine directly so the per-channel peak is visible.
    core::ExperimentSpec spec = cell("orin-nano", "resnet50", 2);
    const auto b = analyze(spec);
    ASSERT_TRUE(b.ok);

    sim::EventQueue eq;
    soc::Board board(soc::orinNano(), eq);
    board.start();
    cpu::OsScheduler sched(board);
    gpu::GpuEngine gpu(board);
    graph::Network net = models::resnet50();

    std::vector<std::unique_ptr<workload::InferenceProcess>> procs;
    for (int i = 0; i < spec.processes; ++i) {
        workload::ProcessConfig cfg;
        cfg.name = "p" + std::to_string(i);
        cfg.pre_enqueue = spec.pre_enqueue;
        procs.push_back(std::make_unique<workload::InferenceProcess>(
            board, sched, gpu, net, cfg));
        ASSERT_TRUE(procs.back()->deploy());
        procs.back()->start();
    }
    eq.runUntil(sim::msec(800));
    for (int ch = 0; ch < spec.processes; ++ch)
        EXPECT_LE(gpu.peakChannelDepth(ch),
                  static_cast<std::size_t>(
                      b.procs[0].queue_depth_hi))
            << "channel " << ch;
}

TEST(Soundness, JetmcWorstCaseBlockingInsideTheAdversarialBound)
{
    // The model checker explores *adversarial* CPU dispatch orders
    // the FIFO bound does not cover; its observed worst case must
    // stay below the theft-augmented static bound.
    mc::DeployConfig cfg;
    cfg.device = "orin-nano";
    cfg.procs = {{"resnet50", soc::Precision::Fp16, 1},
                 {"yolov8n", soc::Precision::Fp16, 1}};
    cfg.max_ecs = 2;
    cfg.pre_enqueue = 1;

    core::MixedExperimentSpec spec;
    spec.device = cfg.device;
    for (const auto &p : cfg.procs)
        spec.workloads.push_back({p.model, p.precision, p.batch, 1});
    spec.pre_enqueue = cfg.pre_enqueue;
    spec.dvfs = false; // the model pins the governor off
    const auto b = analyze(spec);
    ASSERT_TRUE(b.ok) << b.error;

    mc::DeploymentModel model(cfg);
    mc::ExploreConfig ec;
    ec.depth = 12;
    ec.max_runs = 300;
    ec.stop_on_failure = false;
    const auto rep = mc::explore(model, ec);
    EXPECT_TRUE(rep.clean()) << rep.ce_what;
    ASSERT_EQ(rep.max_block_ms.size(), cfg.procs.size());
    for (std::size_t i = 0; i < rep.max_block_ms.size(); ++i) {
        const double bound = adversarialBlockingHiMs(
            b, static_cast<int>(i), cfg.max_ecs);
        EXPECT_LE(rep.max_block_ms[i], bound * (1.0 + 1e-6))
            << "proc " << i << " observed " << rep.max_block_ms[i]
            << " vs adversarial bound " << bound;
    }
}

} // namespace
} // namespace jetsim::absint
