/**
 * @file
 * ExecutionContext tests: one enqueue drives every engine kernel
 * through the stream and reports a coherent EC record.
 */

#include "trt/execution_context.hh"

#include <gtest/gtest.h>

#include "cpu/scheduler.hh"
#include "models/zoo.hh"
#include "sim/event_queue.hh"
#include "trt/builder.hh"

namespace jetsim::trt {
namespace {

struct Rig
{
    sim::EventQueue eq;
    soc::Board board{soc::orinNano(), eq};
    cpu::OsScheduler sched{board};
    gpu::GpuEngine gpu{board};
    cuda::Stream stream{gpu, "s0"};
    cpu::Thread *thread = sched.createThread("t0");

    Engine engine = [this] {
        Builder b(board.spec());
        BuilderConfig cfg;
        cfg.precision = soc::Precision::Int8;
        return b.build(models::resnet50(), cfg);
    }();
    ExecutionContext ctx{engine, stream, *thread, board};
};

TEST(ExecutionContext, EnqueueRunsEveryKernel)
{
    Rig r;
    bool done = false;
    EcRecord rec;
    r.thread->exec(sim::usec(1), [&] {
        r.ctx.enqueue(rec, [&] { done = true; });
    });
    r.eq.runAll();
    ASSERT_TRUE(done);
    EXPECT_EQ(static_cast<std::size_t>(rec.kernels),
              r.engine.kernels().size());
    EXPECT_EQ(r.stream.completed(), r.engine.kernels().size());
}

TEST(ExecutionContext, RecordTimesAreOrdered)
{
    Rig r;
    EcRecord rec;
    bool done = false;
    r.thread->exec(sim::usec(1), [&] {
        r.ctx.enqueue(rec, [&] { done = true; });
    });
    r.eq.runAll();
    ASSERT_TRUE(done);
    EXPECT_LE(rec.enqueue_begin, rec.enqueue_end);
    EXPECT_LT(rec.enqueue_end, rec.gpu_done);
    EXPECT_GT(rec.launch_api_total, 0);
    EXPECT_GT(rec.span(), 0);
}

TEST(ExecutionContext, CpuDoneFiresBeforeGpuDone)
{
    Rig r;
    EcRecord rec;
    sim::Tick cpu_done = -1, gpu_done = -1;
    r.thread->exec(sim::usec(1), [&] {
        r.ctx.enqueue(
            rec, [&] { gpu_done = r.eq.now(); },
            [&] { cpu_done = r.eq.now(); });
    });
    r.eq.runAll();
    ASSERT_GE(cpu_done, 0);
    ASSERT_GE(gpu_done, 0);
    EXPECT_LT(cpu_done, gpu_done);
}

TEST(ExecutionContext, SequentialEnqueuesPipeline)
{
    Rig r;
    int done = 0;
    EcRecord first, second;
    // Enqueue the second EC as soon as the first's CPU side returns:
    // both are then in flight on the stream.
    r.thread->exec(sim::usec(1), [&] {
        r.ctx.enqueue(first, [&] { ++done; }, [&] {
            r.ctx.enqueue(second, [&] { ++done; });
        });
    });
    r.eq.runAll();
    EXPECT_EQ(done, 2);
    // Each EC completed into its own record, in enqueue order.
    EXPECT_LT(first.gpu_done, second.gpu_done);
    EXPECT_LE(first.enqueue_end, second.enqueue_begin);
    EXPECT_EQ(r.stream.completed(), 2 * r.engine.kernels().size());
}

TEST(ExecutionContext, LaunchApiInflatesWithProfiler)
{
    sim::Tick base, inflated;
    {
        Rig r;
        EcRecord rec;
        r.thread->exec(sim::usec(1), [&] {
            r.ctx.enqueue(rec, nullptr);
        });
        r.eq.runAll();
        base = rec.launch_api_total;
    }
    {
        Rig r;
        r.board.setLaunchOverheadFactor(1.7);
        EcRecord rec;
        r.thread->exec(sim::usec(1), [&] {
            r.ctx.enqueue(rec, nullptr);
        });
        r.eq.runAll();
        inflated = rec.launch_api_total;
    }
    EXPECT_GT(static_cast<double>(inflated),
              1.3 * static_cast<double>(base));
}

} // namespace
} // namespace jetsim::trt
