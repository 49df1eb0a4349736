/**
 * @file
 * Inference-process tests: deployment, the trtexec closed loop
 * (pre-enqueue, sync modes, measurement windows, the stop drain) and
 * the open loop (queueing under light load, saturation, latency
 * growth with offered load, injected arrivals).
 */

#include "workload/inference_process.hh"

#include <gtest/gtest.h>

#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "sim/event_queue.hh"

namespace jetsim::workload {
namespace {

struct Rig
{
    explicit Rig(soc::DeviceSpec spec = soc::orinNano())
        : board(std::move(spec), eq)
    {
        board.start();
    }

    sim::EventQueue eq;
    soc::Board board;
    cpu::OsScheduler sched{board};
    gpu::GpuEngine gpu{board};
    graph::Network net = models::resnet50();

    std::unique_ptr<InferenceProcess>
    makeProcess(ProcessConfig cfg = {})
    {
        if (cfg.name == "proc")
            cfg.name = "proc" + std::to_string(counter_++);
        cfg.build.precision = soc::Precision::Int8;
        return std::make_unique<InferenceProcess>(board, sched, gpu,
                                                  net, cfg);
    }

    double
    runOne(ProcessConfig cfg = {})
    {
        auto p = makeProcess(std::move(cfg));
        EXPECT_TRUE(p->deploy());
        p->start();
        eq.runUntil(sim::msec(300));
        p->beginMeasurement();
        eq.runUntil(eq.now() + sim::sec(1));
        p->endMeasurement();
        p->stopEnqueue();
        return p->throughput();
    }

    /** A deployed open-loop server with blocking sync. */
    std::unique_ptr<InferenceProcess>
    server(double rate, int batch = 1)
    {
        ProcessConfig cfg;
        cfg.name = "srv";
        cfg.build.batch = batch;
        cfg.arrival_rate = rate;
        cfg.spin_wait = false;
        auto p = makeProcess(std::move(cfg));
        EXPECT_TRUE(p->deploy());
        return p;
    }

    void
    measure(InferenceProcess &p, sim::Tick warm = sim::msec(400),
            sim::Tick dur = sim::sec(3))
    {
        p.start();
        eq.runUntil(eq.now() + warm);
        p.beginMeasurement();
        eq.runUntil(eq.now() + dur);
        p.endMeasurement();
        p.stopEnqueue();
    }

    int counter_ = 0;
};

TEST(Process, DeploysAndPinsMemory)
{
    Rig r;
    auto p = r.makeProcess();
    EXPECT_FALSE(p->deployed());
    ASSERT_TRUE(p->deploy());
    EXPECT_TRUE(p->deployed());
    EXPECT_GT(p->deviceBytes(),
              r.board.spec().memory.process_runtime_overhead);
    EXPECT_EQ(r.board.memory().used(), p->deviceBytes());
}

TEST(Process, MemoryReleasedOnDestruction)
{
    Rig r;
    {
        auto p = r.makeProcess();
        ASSERT_TRUE(p->deploy());
        EXPECT_GT(r.board.memory().used(), 0u);
    }
    EXPECT_EQ(r.board.memory().used(), 0u);
}

TEST(Process, DeployFailsWhenMemoryExhausted)
{
    Rig r;
    // Hog nearly everything first.
    const auto avail = r.board.memory().available();
    r.board.memory().allocate("hog", avail - 10 * sim::kMiB);
    auto p = r.makeProcess();
    EXPECT_FALSE(p->deploy());
    EXPECT_FALSE(p->deployed());
    // The failed deploy leaks nothing.
    EXPECT_EQ(r.board.memory().ownerUsage(p->config().name), 0u);
}

TEST(Process, ProducesThroughput)
{
    Rig r;
    const double tput = r.runOne();
    EXPECT_GT(tput, 100.0);
    EXPECT_LT(tput, 2000.0);
}

TEST(Process, MeasurementWindowExcludesWarmup)
{
    Rig r;
    auto p = r.makeProcess();
    ASSERT_TRUE(p->deploy());
    p->start();
    r.eq.runUntil(sim::msec(300));
    EXPECT_EQ(p->imagesCompleted(), 0u); // not measuring yet
    p->beginMeasurement();
    r.eq.runUntil(r.eq.now() + sim::sec(1));
    p->endMeasurement();
    EXPECT_GT(p->imagesCompleted(), 0u);
    EXPECT_EQ(p->imagesCompleted(), p->ecsCompleted()); // batch 1
}

TEST(Process, BatchMultipliesImagesPerEc)
{
    Rig r;
    ProcessConfig cfg;
    cfg.build.batch = 8;
    auto p = r.makeProcess(std::move(cfg));
    ASSERT_TRUE(p->deploy());
    p->start();
    r.eq.runUntil(sim::msec(300));
    p->beginMeasurement();
    r.eq.runUntil(r.eq.now() + sim::sec(1));
    p->endMeasurement();
    EXPECT_EQ(p->imagesCompleted(), 8 * p->ecsCompleted());
}

TEST(Process, PreEnqueueLiftsThroughput)
{
    Rig a;
    ProcessConfig with;
    with.pre_enqueue = 1;
    const double pipelined = a.runOne(std::move(with));

    Rig b;
    ProcessConfig without;
    without.pre_enqueue = 0;
    const double serial = b.runOne(std::move(without));

    // The paper: pre-enqueue makes trtexec an *upper bound*.
    EXPECT_GT(pipelined, serial * 1.05);
}

TEST(Process, StopEnqueueDrainsQuietly)
{
    Rig r;
    auto p = r.makeProcess();
    ASSERT_TRUE(p->deploy());
    p->start();
    r.eq.runUntil(sim::msec(200));
    p->stopEnqueue();
    // Everything in flight finishes; the queue then goes quiet
    // except for periodic services.
    const auto executed = r.eq.executed();
    r.eq.runUntil(r.eq.now() + sim::msec(100));
    r.eq.runUntil(r.eq.now() + sim::msec(100));
    EXPECT_GT(r.eq.executed(), executed); // governor still ticking
    EXPECT_FALSE(r.board.activity().gpu_busy);
}

TEST(Process, StopEnqueueSyncsEveryInFlightEc)
{
    // Stop and the max_ecs bound share one drain path: every EC the
    // loop enqueued completes and gets its cudaStreamSynchronize.
    Rig r;
    auto p = r.makeProcess();
    ASSERT_TRUE(p->deploy());
    p->beginMeasurement(); // count from the first EC
    p->start();
    r.eq.runUntil(sim::msec(300));
    p->stopEnqueue();
    r.eq.runUntil(r.eq.now() + sim::msec(200));
    p->endMeasurement();
    EXPECT_GT(p->ecsCompleted(), 100u);
    EXPECT_EQ(p->ecsCompleted(), p->ecsLaunched());
    EXPECT_EQ(p->syncSpan().count(), p->ecsCompleted());
}

TEST(Process, InjectArrivalOnClosedLoopPanics)
{
    Rig r;
    auto p = r.makeProcess();
    ASSERT_TRUE(p->deploy());
    EXPECT_DEATH(p->injectArrival(r.eq.now()), "assertion failed");
}

TEST(Process, RecordsKernelLevelMetrics)
{
    Rig r;
    auto p = r.makeProcess();
    ASSERT_TRUE(p->deploy());
    p->start();
    r.eq.runUntil(sim::msec(300));
    p->beginMeasurement();
    r.eq.runUntil(r.eq.now() + sim::sec(1));
    p->endMeasurement();
    EXPECT_GT(p->ecPeriod().count(), 0u);
    EXPECT_GT(p->enqueueSpan().mean(), 0.0);
    EXPECT_GT(p->launchApiPerEc().mean(), 0.0);
    EXPECT_GT(p->syncSpan().mean(), 0.0);
    // EC period tracks the throughput reciprocal.
    const double period_s =
        p->ecPeriod().mean() / 1e9;
    EXPECT_NEAR(1.0 / period_s, p->throughput(),
                p->throughput() * 0.1);
}

TEST(Process, BlockingSyncModeAlsoWorks)
{
    Rig r;
    ProcessConfig cfg;
    cfg.spin_wait = false;
    auto p = r.makeProcess(std::move(cfg));
    ASSERT_TRUE(p->deploy());
    p->start();
    r.eq.runUntil(sim::msec(300));
    p->beginMeasurement();
    r.eq.runUntil(r.eq.now() + sim::sec(1));
    p->endMeasurement();
    EXPECT_GT(p->throughput(), 100.0);
}

TEST(Process, SpinWaitBurnsMoreCpu)
{
    auto cpu_time = [](bool spin) {
        Rig r;
        ProcessConfig cfg;
        cfg.spin_wait = spin;
        auto p = r.makeProcess(std::move(cfg));
        EXPECT_TRUE(p->deploy());
        p->start();
        r.eq.runUntil(sim::msec(300));
        p->beginMeasurement();
        r.eq.runUntil(r.eq.now() + sim::sec(1));
        p->endMeasurement();
        return p->thread().cpuTime();
    };
    EXPECT_GT(cpu_time(true), 2 * cpu_time(false));
}

TEST(Serving, LightLoadServesEverything)
{
    Rig r;
    auto p = r.server(50.0); // capacity is ~350 img/s
    r.measure(*p);
    EXPECT_NEAR(p->throughput(), 50.0, 10.0);
    // No standing queue under light load.
    EXPECT_LE(p->maxQueueDepth(), 4u);
}

TEST(Serving, LightLoadLatencyNearServiceTime)
{
    Rig r;
    auto p = r.server(50.0);
    r.measure(*p);
    // Service time is a few ms (one EC plus prep); queueing adds
    // little at 14 % utilisation.
    EXPECT_LT(p->latencyCdf().median() / 1e6, 15.0);
    EXPECT_GT(p->latencyCdf().median() / 1e6, 1.0);
}

TEST(Serving, OverloadSaturatesAtCapacity)
{
    Rig r;
    auto p = r.server(2000.0); // far beyond capacity
    r.measure(*p);
    // Achieved rate is the closed-loop capacity ballpark, far below
    // the offered 2000 img/s.
    EXPECT_LT(p->throughput(), 600.0);
    EXPECT_GT(p->throughput(), 150.0);
    // The backlog grows without bound.
    EXPECT_GT(p->maxQueueDepth(), 100u);
}

TEST(Serving, LatencyGrowsWithOfferedLoad)
{
    double prev = 0.0;
    for (double rate : {50.0, 200.0, 330.0}) {
        Rig r;
        auto p = r.server(rate);
        r.measure(*p);
        const double p99 = p->latencyCdf().quantile(0.99);
        EXPECT_GT(p99, prev) << rate;
        prev = p99;
    }
}

TEST(Serving, BatchingTradesLatencyForThroughput)
{
    Rig r1;
    auto b1 = r1.server(300.0, 1);
    r1.measure(*b1);

    Rig r8;
    auto b8 = r8.server(300.0, 8);
    r8.measure(*b8);

    // The batch-8 engine holds the rate easily (more headroom)...
    EXPECT_NEAR(b8->throughput(), 300.0, 40.0);
    // ...but each request waits for its batch and the longer EC.
    EXPECT_GT(b8->latencyCdf().median(),
              b1->latencyCdf().median());
}

TEST(Serving, ArrivalsAccountedExactly)
{
    Rig r;
    auto p = r.server(100.0);
    r.measure(*p);
    // Served cannot exceed arrivals within the window by more than
    // what was already queued at the window start.
    EXPECT_LE(p->imagesCompleted(), p->arrived() + 8);
    EXPECT_GT(p->arrived(), 200u); // ~100/s over 3 s
}

TEST(Serving, Deterministic)
{
    auto run = [] {
        Rig r;
        auto p = r.server(150.0);
        r.measure(*p);
        return p->throughput();
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Serving, StopArrivalsDrains)
{
    Rig r;
    auto p = r.server(100.0);
    p->start();
    r.eq.runUntil(sim::msec(500));
    p->stopEnqueue();
    r.eq.runUntil(r.eq.now() + sim::sec(1));
    EXPECT_FALSE(r.board.activity().gpu_busy);
}

TEST(Serving, DeployFailureIsRecoverable)
{
    Rig r;
    r.board.memory().allocate("hog",
                              r.board.memory().available() -
                                  10 * sim::kMiB);
    ProcessConfig cfg;
    cfg.name = "server";
    cfg.arrival_rate = 100.0;
    EXPECT_FALSE(r.makeProcess(std::move(cfg))->deploy());
}

TEST(Serving, InjectedArrivalsServeInExternalOnlyMode)
{
    // arrival_rate 0: no local generator; the fleet balancer's
    // injectArrival() path is the only traffic source.
    Rig r;
    auto p = r.server(0.0);
    p->start();
    r.eq.runUntil(sim::msec(1));
    p->beginMeasurement();
    // Inject 50 requests at a steady 10 ms spacing via queue events,
    // each with an origin one dispatch-hop in the past.
    for (int i = 1; i <= 50; ++i)
        r.eq.schedule(r.eq.now() + i * sim::msec(10), [&] {
            p->injectArrival(r.eq.now() - sim::usec(200));
        });
    r.eq.runUntil(r.eq.now() + sim::msec(520));
    p->endMeasurement();
    p->stopEnqueue();
    EXPECT_EQ(p->arrived(), 50u);
    EXPECT_GE(p->imagesCompleted(), 45u);
    // The latency clock starts at the balancer-side origin, so every
    // sample includes the 200 us dispatch hop.
    EXPECT_GT(p->latencyCdf().min(), sim::usec(200));
}

TEST(Serving, InjectedArrivalsDroppedAfterStop)
{
    Rig r;
    auto p = r.server(0.0);
    p->start();
    p->beginMeasurement();
    p->stopEnqueue();
    p->injectArrival(r.eq.now());
    r.eq.runUntil(sim::msec(50));
    p->endMeasurement();
    EXPECT_EQ(p->arrived(), 0u);
    EXPECT_EQ(p->imagesCompleted(), 0u);
}

TEST(Serving, RecordsEcMetrics)
{
    // The open loop records every per-EC metric the closed loop does,
    // and one latency sample per request.
    Rig r;
    auto p = r.server(100.0);
    r.measure(*p);
    ASSERT_GT(p->ecsCompleted(), 200u);
    EXPECT_EQ(p->ecSpan().count(), p->ecsCompleted());
    EXPECT_EQ(p->ecPeriod().count(), p->ecsCompleted());
    EXPECT_GT(p->enqueueSpan().mean(), 0.0);
    EXPECT_GT(p->launchApiPerEc().mean(), 0.0);
    EXPECT_GT(p->syncSpan().count(), 0u);
    EXPECT_EQ(p->blockedTime().count(), p->syncSpan().count());
    // Blocking sync: detection pays at least the wake-up's CPU cost.
    EXPECT_GT(p->blockedTime().mean(), 0.0);
    EXPECT_EQ(p->latencyCdf().count(), p->imagesCompleted());
    // A request waits at least for its EC's pipeline span.
    EXPECT_GE(p->latencyCdf().min(), p->ecSpan().min());
}

} // namespace
} // namespace jetsim::workload
