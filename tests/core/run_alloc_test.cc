/**
 * @file
 * The run phase does not allocate. After warm-up, a simulated window
 * four times longer than a first one may add heap allocations only
 * where a result-sample vector (a latency CDF, a Nsight counter CDF,
 * a jstats sample list) grows by doubling — nothing may allocate per
 * event, per kernel, per EC or per request. Two shapes:
 *
 *  - the phase-2 cell perfbench's cell_deep times: orin-nano
 *    resnet50/int8, batch 1, 8 spin-waiting processes under Nsight;
 *  - an open-loop fleet of a few boards on the sharded engine, fed by
 *    local Poisson arrivals and a cross-shard balancer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cpu/scheduler.hh"
#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "prof/jstats.hh"
#include "prof/nsight.hh"
#include "sim/event_queue.hh"
#include "sim/sharded_engine.hh"
#include "soc/board.hh"
#include "support/alloc_count.hh"
#include "workload/inference_process.hh"

namespace jetsim {
namespace {

/** Reallocations a doubling vector can make while its size grows
 * from @p from to @p to elements. */
std::uint64_t
growthSteps(std::size_t from, std::size_t to)
{
    if (to <= from)
        return 0;
    const double base = static_cast<double>(from ? from : 1);
    return static_cast<std::uint64_t>(
               std::ceil(std::log2(static_cast<double>(to) / base))) +
           (from ? 0 : 1);
}

/** Sizes of every result-sample vector a run grows as it measures. */
using SampleSizes = std::vector<std::size_t>;

std::uint64_t
growthBudget(const SampleSizes &before, const SampleSizes &after)
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < before.size(); ++i)
        n += growthSteps(before[i], after[i]);
    return n;
}

/** Allocations made by @p run, and the run's own return value. */
template <class F>
std::pair<std::uint64_t, std::uint64_t>
countAllocs(F &&run)
{
    const testing::AllocCount counting;
    const std::uint64_t events = run();
    return {counting.count(), events};
}

/** One board's stack, as core::runFleet builds it. */
struct Node
{
    Node(const std::string &device, sim::EventQueue &eq,
         std::uint64_t seed)
        : board(soc::deviceByName(device), eq, seed), sched(board),
          gpu(board)
    {}

    soc::Board board;
    cpu::OsScheduler sched;
    gpu::GpuEngine gpu;
    std::unique_ptr<workload::InferenceProcess> srv;
};

TEST(RunPhaseAlloc, DeepCellAllocatesOnlyForSampleGrowth)
{
    sim::EventQueue eq;
    soc::Board board(soc::orinNano(), eq, 1);
    board.start();
    cpu::OsScheduler sched(board);
    gpu::GpuEngine gpu(board);

    std::vector<std::unique_ptr<workload::InferenceProcess>> procs;
    for (int i = 0; i < 8; ++i) {
        workload::ProcessConfig cfg;
        cfg.name = "resnet50/int8." + std::to_string(i);
        cfg.build.precision = soc::Precision::Int8;
        cfg.build.batch = 1;
        cfg.start_offset = sim::msec(7) * i;
        procs.push_back(std::make_unique<workload::InferenceProcess>(
            board, sched, gpu, models::modelByName("resnet50"), cfg));
        ASSERT_TRUE(procs.back()->deploy());
    }
    prof::JStatsSampler jstats(board, sim::msec(100));
    jstats.start();
    prof::NsightTracer tracer(board, gpu, sim::msec(1));
    tracer.attach();
    for (auto &p : procs)
        p->start();

    eq.runUntil(sim::msec(400));
    for (auto &p : procs)
        p->beginMeasurement();
    jstats.reset();
    tracer.reset();

    const auto sizes = [&] {
        SampleSizes s;
        for (const auto &p : procs)
            s.push_back(p->latencyCdf().count());
        s.push_back(tracer.smActiveCdf().count());
        s.push_back(tracer.issueSlotCdf().count());
        s.push_back(tracer.tcUtilCdf().count());
        s.push_back(jstats.samples().size());
        return s;
    };
    const sim::Tick window = sim::msec(250);
    const auto [first, first_events] =
        countAllocs([&] { return eq.runUntil(eq.now() + window); });
    const SampleSizes before = sizes();
    const auto [longer, events] =
        countAllocs([&] { return eq.runUntil(eq.now() + 4 * window); });
    const std::uint64_t budget = growthBudget(before, sizes());

    EXPECT_GT(first_events, 10'000u);
    EXPECT_GT(events, 4 * first_events / 2); // the window really ran
    for (const auto &p : procs)
        EXPECT_GT(p->ecsCompleted(), 0u);
    EXPECT_LE(longer, budget)
        << "a 4x window allocated " << longer << " times over "
        << events << " events (first window: " << first
        << "); sample growth accounts for at most " << budget;
}

TEST(RunPhaseAlloc, OpenLoopFleetAllocatesOnlyForSampleGrowth)
{
    // Four open-loop servers on two shards, fed by their own Poisson
    // arrivals plus a balancer on shard 0 that round-robins requests
    // through the engine's cross-shard path.
    constexpr int kBoards = 4;
    constexpr sim::Tick kLatency = sim::usec(200);
    sim::ShardedEngine::Options opts;
    opts.shards = 2;
    opts.threads = 1;
    opts.lookahead = kLatency;
    sim::ShardedEngine engine(opts);

    const char *const devices[] = {"orin-nano", "nano"};
    const char *const models[] = {"resnet18", "mobilenet_v2"};
    std::vector<std::unique_ptr<Node>> nodes;
    for (int d = 0; d < kBoards; ++d) {
        auto node = std::make_unique<Node>(devices[d % 2],
                                           engine.shard(d % 2),
                                           1000003 + d);
        node->board.start();
        workload::ProcessConfig cfg;
        cfg.name = "srv" + std::to_string(d);
        cfg.build.precision = soc::Precision::Int8;
        cfg.build.batch = 2;
        cfg.arrival_rate = 40.0;
        cfg.spin_wait = false;
        node->srv = std::make_unique<workload::InferenceProcess>(
            node->board, node->sched, node->gpu,
            models::modelByName(models[d / 2]), cfg);
        ASSERT_TRUE(node->srv->deploy());
        nodes.push_back(std::move(node));
    }

    struct Balancer
    {
        sim::ShardedEngine &engine;
        int port;
        std::vector<std::unique_ptr<Node>> &nodes;
        sim::Rng rng{29};
        std::size_t next = 0;

        void
        schedule()
        {
            const double gap_ns = -1e9 / 150.0 * std::log(
                                      std::max(rng.uniform(), 1e-12));
            engine.shard(0).scheduleIn(
                static_cast<sim::Tick>(gap_ns) + 1, [this] { fire(); });
        }

        void
        fire()
        {
            const std::size_t d = next;
            next = (next + 1) % nodes.size();
            workload::InferenceProcess *srv = nodes[d]->srv.get();
            const sim::Tick origin = engine.shard(0).now();
            engine.post(port, static_cast<int>(d % 2), origin + kLatency,
                        [srv, origin] { srv->injectArrival(origin); });
            schedule();
        }
    } balancer{engine, engine.addPort(0), nodes};

    for (auto &node : nodes)
        node->srv->start();
    balancer.schedule();

    engine.runUntil(sim::msec(300));
    for (auto &node : nodes)
        node->srv->beginMeasurement();

    const auto sizes = [&] {
        SampleSizes s;
        for (const auto &node : nodes)
            s.push_back(node->srv->latencyCdf().count());
        return s;
    };
    const sim::Tick window = sim::msec(300);
    sim::Tick until = sim::msec(300) + window;
    const auto [first, first_events] =
        countAllocs([&] { return engine.runUntil(until); });
    const SampleSizes before = sizes();
    until += 4 * window;
    const auto [longer, events] =
        countAllocs([&] { return engine.runUntil(until); });
    const std::uint64_t budget = growthBudget(before, sizes());

    EXPECT_GT(first_events, 1'000u);
    std::uint64_t requests = 0;
    for (const auto &node : nodes)
        requests += node->srv->arrived();
    // About 240 local and 225 balancer requests in the 1.5 s window:
    // neither source alone reaches 300.
    EXPECT_GT(requests, 300u);
    EXPECT_LE(longer, budget)
        << "a 4x window allocated " << longer << " times over "
        << events << " events and " << requests
        << " requests (first window: " << first
        << "); sample growth accounts for at most " << budget;
}

} // namespace
} // namespace jetsim
