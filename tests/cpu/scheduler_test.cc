/**
 * @file
 * OS-scheduler tests: dispatch, time-sharing, preemption accounting,
 * cache-warmth penalties, and the big.LITTLE partition, including
 * parameterized sweeps over thread counts.
 */

#include "cpu/scheduler.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "soc/board.hh"

namespace jetsim::cpu {
namespace {

struct Rig
{
    sim::EventQueue eq;
    soc::Board board{soc::orinNano(), eq};
    OsScheduler sched{board};
};

TEST(Scheduler, SingleThreadRunsImmediately)
{
    Rig r;
    bool done = false;
    Thread *t = r.sched.createThread("t0");
    EXPECT_EQ(t->state(), Thread::State::Idle);
    t->exec(sim::usec(100), [&] { done = true; });
    r.eq.runAll();
    EXPECT_TRUE(done);
    EXPECT_EQ(t->state(), Thread::State::Idle);
    EXPECT_GE(t->cpuTime(), sim::usec(100));
}

TEST(Scheduler, WorkTimeIsAccounted)
{
    Rig r;
    Thread *t = r.sched.createThread("t0");
    t->exec(sim::usec(250), nullptr);
    r.eq.runAll();
    EXPECT_EQ(t->cpuTime(), sim::usec(250));
    EXPECT_EQ(t->dispatches(), 1u);
}

TEST(Scheduler, ChainedItemsRunInOrder)
{
    Rig r;
    Thread *t = r.sched.createThread("t0");
    std::vector<int> order;
    t->exec(sim::usec(10), [&] { order.push_back(1); });
    t->exec(sim::usec(10), [&] { order.push_back(2); });
    t->exec(sim::usec(10), [&] { order.push_back(3); });
    r.eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, CallbackMayQueueMoreWork)
{
    Rig r;
    Thread *t = r.sched.createThread("t0");
    int steps = 0;
    std::function<void()> step = [&] {
        if (++steps < 4)
            t->exec(sim::usec(5), step);
    };
    t->exec(sim::usec(5), step);
    r.eq.runAll();
    EXPECT_EQ(steps, 4);
}

TEST(Scheduler, ThreadsWithinCoreCountRunConcurrently)
{
    Rig r;
    // 3 big cores: 3 threads of equal work finish at the same time.
    std::vector<sim::Tick> done(3);
    for (int i = 0; i < 3; ++i) {
        Thread *t = r.sched.createThread("t" + std::to_string(i));
        t->exec(sim::msec(1), [&, i] { done[i] = r.eq.now(); });
    }
    r.eq.runAll();
    EXPECT_EQ(done[0], done[1]);
    EXPECT_EQ(done[1], done[2]);
}

TEST(Scheduler, OversubscriptionSerialises)
{
    Rig r;
    // 6 threads x 1 ms on 3 big cores: ~2 ms wall, not 1 ms.
    sim::Tick last = 0;
    for (int i = 0; i < 6; ++i) {
        Thread *t = r.sched.createThread("t" + std::to_string(i));
        t->exec(sim::msec(1), [&] { last = r.eq.now(); });
    }
    r.eq.runAll();
    EXPECT_GE(last, sim::msec(2));
}

TEST(Scheduler, WakeWaitAccruesUnderContention)
{
    Rig r;
    std::vector<Thread *> ts;
    for (int i = 0; i < 6; ++i)
        ts.push_back(r.sched.createThread("t" + std::to_string(i)));
    for (auto *t : ts)
        t->exec(sim::msec(1), nullptr);
    r.eq.runAll();
    sim::Tick total_wait = 0;
    for (auto *t : ts)
        total_wait += t->wakeWait();
    EXPECT_GT(total_wait, 0);
}

TEST(Scheduler, NoWaitWhenCoresAreFree)
{
    Rig r;
    Thread *t = r.sched.createThread("t0");
    t->exec(sim::msec(1), nullptr);
    r.eq.runAll();
    EXPECT_EQ(t->wakeWait(), 0);
    EXPECT_EQ(t->preemptWait(), 0);
    EXPECT_EQ(t->migrations(), 0u);
}

TEST(Scheduler, LongRunnersGetPreempted)
{
    Rig r;
    // 4 long threads on 3 cores force timeslice preemption.
    std::vector<Thread *> ts;
    for (int i = 0; i < 4; ++i) {
        ts.push_back(r.sched.createThread("t" + std::to_string(i)));
        ts.back()->exec(sim::msec(20), nullptr);
    }
    r.eq.runAll();
    EXPECT_GT(r.sched.preemptions(), 0u);
    std::uint64_t preempted = 0;
    for (auto *t : ts)
        preempted += t->preemptions();
    EXPECT_GT(preempted, 0u);
}

TEST(Scheduler, FairnessUnderTimeSharing)
{
    Rig r;
    // All equal threads finish within one timeslice of each other.
    std::vector<sim::Tick> done(6, 0);
    for (int i = 0; i < 6; ++i) {
        Thread *t = r.sched.createThread("t" + std::to_string(i));
        t->exec(sim::msec(10), [&, i] { done[i] = r.eq.now(); });
    }
    r.eq.runAll();
    const auto [lo, hi] = std::minmax_element(done.begin(), done.end());
    EXPECT_LE(*hi - *lo,
              2 * r.board.spec().runtime.timeslice +
                  sim::usec(200));
}

TEST(Scheduler, MigrationsChargeCachePenalty)
{
    Rig r;
    std::vector<Thread *> ts;
    for (int i = 0; i < 5; ++i) {
        ts.push_back(r.sched.createThread("t" + std::to_string(i)));
        ts.back()->exec(sim::msec(30), nullptr);
    }
    r.eq.runAll();
    std::uint64_t migrations = 0;
    sim::Tick penalty = 0;
    for (auto *t : ts) {
        migrations += t->migrations();
        penalty += t->cachePenalty();
    }
    EXPECT_GT(migrations, 0u);
    EXPECT_GT(penalty, 0);
}

TEST(Scheduler, BigAffinityLimitsParallelismWhenPartitioned)
{
    Rig r;
    // 6 big threads on 3 big cores vs the same with partitioning off
    // (all 6 cores usable): partitioned must take longer.
    sim::Tick partitioned_end = 0;
    {
        Rig p;
        for (int i = 0; i < 6; ++i)
            p.sched.createThread("t" + std::to_string(i))
                ->exec(sim::msec(5), nullptr);
        p.eq.runAll();
        partitioned_end = p.eq.now();
    }
    r.sched.setPartitioned(false);
    for (int i = 0; i < 6; ++i)
        r.sched.createThread("t" + std::to_string(i))
            ->exec(sim::msec(5), nullptr);
    r.eq.runAll();
    EXPECT_LT(r.eq.now(), partitioned_end);
}

TEST(Scheduler, LittleThreadsUseLittleCores)
{
    Rig r;
    Thread *big = r.sched.createThread("big", true);
    Thread *little = r.sched.createThread("little", false);
    big->exec(sim::msec(1), nullptr);
    little->exec(sim::msec(1), nullptr);
    // Both runnable: one big core and one LITTLE core busy.
    r.eq.runUntil(sim::usec(100));
    EXPECT_EQ(r.sched.busyCores(true), 1);
    EXPECT_EQ(r.sched.busyCores(false), 1);
    r.eq.runAll();
}

TEST(Scheduler, BoardActivityTracksBusyCores)
{
    Rig r;
    for (int i = 0; i < 2; ++i)
        r.sched.createThread("t" + std::to_string(i))
            ->exec(sim::msec(1), nullptr);
    r.eq.runUntil(sim::usec(100));
    EXPECT_EQ(r.board.activity().cpu_active_big, 2);
    r.eq.runAll();
    EXPECT_EQ(r.board.activity().cpu_active_big, 0);
}

TEST(Scheduler, ResetStatsZeroesCounters)
{
    Rig r;
    Thread *t = r.sched.createThread("t0");
    t->exec(sim::msec(1), nullptr);
    r.eq.runAll();
    EXPECT_GT(t->cpuTime(), 0);
    t->resetStats();
    EXPECT_EQ(t->cpuTime(), 0);
    EXPECT_EQ(t->dispatches(), 0u);
}

/**
 * One spin-waiting thread: each round preps, then busy-polls a ready
 * flag a timed event raises, either through Thread::spin or through
 * the exec() re-queue loop spin() replaces.
 */
struct Spinner
{
    static constexpr int kRounds = 4;
    static constexpr sim::Tick kChunk = sim::usec(150);

    sim::EventQueue *eq;
    Thread *t;
    bool use_spin;
    int id;
    int round = 0;
    bool ready[kRounds] = {};
    std::vector<sim::Tick> done_at{};

    void
    prep()
    {
        t->exec(sim::usec(100 + 37 * id + 11 * round), [this] { wait(); });
    }

    void
    wait()
    {
        if (use_spin)
            t->spin(kChunk, &ready[round], [this] { done(); });
        else
            poll();
    }

    void
    poll()
    {
        t->exec(kChunk, [this] {
            if (ready[round])
                done();
            else
                poll();
        });
    }

    void
    done()
    {
        done_at.push_back(eq->now());
        if (++round < kRounds)
            prep();
    }
};

/** Everything observable about a contended spin-wait run. */
struct SpinRun
{
    std::vector<std::vector<sim::Tick>> done_at;
    std::vector<sim::Tick> cpu, wake_wait, preempt_wait;
    std::vector<std::uint64_t> dispatches, preemptions, migrations;
    std::uint64_t context_switches = 0;
    std::uint64_t events = 0;
    sim::Tick end = 0;
};

SpinRun
runSpinners(bool use_spin)
{
    Rig r;
    std::vector<std::unique_ptr<Spinner>> spinners;
    for (int i = 0; i < 4; ++i) {
        spinners.push_back(std::unique_ptr<Spinner>(new Spinner{
            &r.eq, r.sched.createThread("spin" + std::to_string(i)),
            use_spin, i}));
        Spinner *s = spinners.back().get();
        for (int k = 0; k < Spinner::kRounds; ++k)
            r.eq.schedule(sim::usec(900 + 1300 * k + 410 * i),
                          [s, k] { s->ready[k] = true; });
        s->prep();
    }
    r.eq.runAll();

    SpinRun out;
    for (const auto &s : spinners) {
        EXPECT_EQ(s->round, Spinner::kRounds);
        out.done_at.push_back(s->done_at);
        out.cpu.push_back(s->t->cpuTime());
        out.wake_wait.push_back(s->t->wakeWait());
        out.preempt_wait.push_back(s->t->preemptWait());
        out.dispatches.push_back(s->t->dispatches());
        out.preemptions.push_back(s->t->preemptions());
        out.migrations.push_back(s->t->migrations());
    }
    out.context_switches = r.sched.contextSwitches();
    out.events = r.eq.executed();
    out.end = r.eq.now();
    return out;
}

TEST(SchedulerSpin, PollItemMatchesTheExecRequeueLoop)
{
    // 4 spinners on orin-nano's 3 big cores: the polls time-share
    // the cores, so preemptions and migrations land on chunk
    // boundaries. A poll re-armed in place must reproduce the
    // re-queued chunk's schedule exactly.
    const SpinRun spin = runSpinners(true);
    const SpinRun loop = runSpinners(false);
    EXPECT_EQ(spin.done_at, loop.done_at);
    EXPECT_EQ(spin.cpu, loop.cpu);
    EXPECT_EQ(spin.wake_wait, loop.wake_wait);
    EXPECT_EQ(spin.preempt_wait, loop.preempt_wait);
    EXPECT_EQ(spin.dispatches, loop.dispatches);
    EXPECT_EQ(spin.preemptions, loop.preemptions);
    EXPECT_EQ(spin.migrations, loop.migrations);
    EXPECT_EQ(spin.context_switches, loop.context_switches);
    EXPECT_EQ(spin.events, loop.events);
    EXPECT_EQ(spin.end, loop.end);
    // The run is contended enough to exercise the yield rule.
    std::uint64_t preemptions = 0, migrations = 0;
    for (std::size_t i = 0; i < spin.preemptions.size(); ++i) {
        preemptions += spin.preemptions[i];
        migrations += spin.migrations[i];
    }
    EXPECT_GT(preemptions, 0u);
    EXPECT_GT(migrations, 0u);
}

/** Invariant sweep over thread counts. */
class SchedulerLoad : public ::testing::TestWithParam<int>
{
};

TEST_P(SchedulerLoad, ConservationAndBounds)
{
    const int n = GetParam();
    Rig r;
    std::vector<Thread *> ts;
    const sim::Tick work = sim::msec(4);
    for (int i = 0; i < n; ++i) {
        ts.push_back(r.sched.createThread("t" + std::to_string(i)));
        ts.back()->exec(work, nullptr);
    }
    r.eq.runAll();

    const auto &spec = r.board.spec();
    for (auto *t : ts) {
        // Every thread ran at least its nominal work (plus possible
        // cache-penalty inflation), and is idle at the end.
        EXPECT_GE(t->cpuTime(), work);
        EXPECT_EQ(t->state(), Thread::State::Idle);
        EXPECT_GE(t->dispatches(), 1u);
    }
    // Make-span is bounded below by total work over the big cores.
    const double big = spec.bigCores();
    EXPECT_GE(r.eq.now(),
              static_cast<sim::Tick>(n * work / big) - sim::usec(1));
    // No core ran two threads at once: busy cores never exceed count.
    EXPECT_EQ(r.sched.busyCores(true), 0);
}

INSTANTIATE_TEST_SUITE_P(Counts, SchedulerLoad,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16));

} // namespace
} // namespace jetsim::cpu
