/**
 * @file
 * ShardedEngine unit tests: epoch scheduling, the merge fallback,
 * cross-shard message determinism, and the lookahead edge cases the
 * differential battery builds on.
 */

#include "sim/sharded_engine.hh"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "check/reporter.hh"

namespace jetsim::sim {
namespace {

ShardedEngine::Options
opts(int shards, int threads, Tick lookahead)
{
    ShardedEngine::Options o;
    o.shards = shards;
    o.threads = threads;
    o.lookahead = lookahead;
    return o;
}

TEST(ShardedEngine, SingleShardMatchesEventQueue)
{
    ShardedEngine eng(opts(1, 1, 0));
    std::vector<int> log;
    eng.shard(0).schedule(10, [&] { log.push_back(1); });
    eng.shard(0).schedule(5, [&] { log.push_back(0); });
    eng.shard(0).schedule(20, [&] { log.push_back(2); });
    EXPECT_EQ(eng.runUntil(15), 2u);
    EXPECT_EQ(eng.shard(0).now(), 15);
    EXPECT_EQ(eng.runUntil(30), 1u);
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
}

TEST(ShardedEngine, CrossShardPostDeliversAtRequestedTick)
{
    ShardedEngine eng(opts(2, 1, 100));
    const int port = eng.addPort(0);
    Tick seen = kTickInvalid;
    eng.shard(0).schedule(50, [&] {
        eng.post(port, 1, eng.shard(0).now() + 100,
                 [&] { seen = eng.shard(1).now(); });
    });
    eng.runUntil(1000);
    EXPECT_EQ(seen, 150);
    EXPECT_EQ(eng.stats().messages, 1u);
}

TEST(ShardedEngine, PostBelowLookaheadViolatesAndClamps)
{
    check::ScopedCapture cap;
    ShardedEngine eng(opts(2, 1, 100));
    const int port = eng.addPort(0);
    Tick seen = kTickInvalid;
    eng.shard(0).schedule(10, [&] {
        // 10 + 40 < 10 + lookahead: conservative bound broken.
        eng.post(port, 1, 50, [&] { seen = eng.shard(1).now(); });
    });
    eng.runUntil(1000);
    EXPECT_EQ(cap.total(), 1u);
    EXPECT_EQ(seen, 110); // clamped to now + lookahead
}

/**
 * The observable of a sharded run: per-shard event logs (cross-shard
 * order is unobservable by design — no shared state) plus counters.
 * The epoch count is a diagnostic, not compared.
 */
struct Observed
{
    std::vector<std::string> per_shard;
    std::uint64_t executed = 0;
    std::uint64_t epochs = 0;

    bool
    operator==(const Observed &o) const
    {
        return per_shard == o.per_shard && executed == o.executed;
    }
};

/**
 * A fixed 4-"device" workload: every device ticks locally and sends
 * round-robin messages to the next device, with deliberate (when,
 * priority) collisions at every multiple of 10.
 */
Observed
runWorkload(int shards, int threads, Tick lookahead)
{
    constexpr int kDevices = 4;
    ShardedEngine eng(opts(shards, threads, lookahead));
    const int k = eng.shards();

    Observed obs;
    obs.per_shard.resize(static_cast<std::size_t>(kDevices));

    std::array<int, kDevices> ports{};
    for (int d = 0; d < kDevices; ++d)
        ports[static_cast<std::size_t>(d)] = eng.addPort(d % k);

    struct Dev
    {
        ShardedEngine *eng;
        Observed *obs;
        const std::array<int, kDevices> *ports;
        int id;
        int shard;
        int sent = 0;

        void
        tick()
        {
            auto &eq = eng->shard(shard);
            obs->per_shard[static_cast<std::size_t>(id)] +=
                "t" + std::to_string(eq.now()) + ";";
            if (sent < 12) {
                ++sent;
                const int dst = (id + 1) % kDevices;
                const int dst_shard = dst % eng->shards();
                eng->post((*ports)[static_cast<std::size_t>(id)],
                          dst_shard, eq.now() + 10,
                          [this, dst](/*runs on dst shard*/) {
                              obs->per_shard[static_cast<
                                  std::size_t>(dst)] +=
                                  "m" + std::to_string(id) + ";";
                          });
                eq.scheduleIn(10, [this] { tick(); });
            }
        }
    };

    std::array<Dev, kDevices> devs;
    for (int d = 0; d < kDevices; ++d) {
        devs[static_cast<std::size_t>(d)] =
            Dev{&eng, &obs, &ports, d, d % k};
        eng.shard(d % k).schedule(
            10, [&devs, d] { devs[static_cast<std::size_t>(d)].tick(); });
    }
    obs.executed = eng.runUntil(500);
    return obs;
}

TEST(ShardedEngine, EveryTopologyMatchesSerial)
{
    const Observed serial = runWorkload(1, 1, 10);
    for (const int shards : {1, 2, 4, 8})
        for (const int threads : {1, 2, 8})
            for (const Tick lookahead : {Tick{0}, Tick{10}}) {
                const Observed got =
                    runWorkload(shards, threads, lookahead);
                EXPECT_EQ(got, serial)
                    << "shards=" << shards << " threads=" << threads
                    << " lookahead=" << lookahead;
            }
}

TEST(ShardedEngine, ZeroLookaheadFallsBackToSerialMerge)
{
    ShardedEngine eng(opts(4, 8, 0));
    const int port = eng.addPort(0);
    int ran = 0;
    eng.shard(0).schedule(
        1, [&] { eng.post(port, 2, 2, [&] { ++ran; }); });
    eng.runUntil(10);
    const auto st = eng.stats();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(st.epochs, 0u) << "zero lookahead must not run epochs";
    EXPECT_GT(st.merge_steps, 0u);
}

TEST(ShardedEngine, EpochModeRunsEpochs)
{
    ShardedEngine eng(opts(2, 2, 10));
    for (int s = 0; s < 2; ++s)
        for (int i = 1; i <= 5; ++i)
            eng.shard(s).schedule(i * 20, [] {});
    eng.runUntil(200);
    const auto st = eng.stats();
    EXPECT_GT(st.epochs, 0u);
    EXPECT_EQ(st.merge_steps, 0u);
    EXPECT_EQ(st.executed, 10u);
}

TEST(ShardedEngine, SimultaneousCrossShardMessageTieIsPortOrdered)
{
    // Two ports on different shards post to shard 2 at the same
    // (when, priority): the lower port id must run first — in both
    // the merge fallback and the epoch path.
    for (const Tick lookahead : {Tick{0}, Tick{5}}) {
        ShardedEngine eng(opts(3, 1, lookahead));
        const int pa = eng.addPort(0); // lower port id
        const int pb = eng.addPort(1);
        std::vector<int> order;
        // Source events at distinct priorities so the *sources* never
        // tie; both messages land at tick 20.
        eng.shard(1).schedule(1, [&] {
            eng.post(pb, 2, 20, [&] { order.push_back(1); });
        });
        eng.shard(0).schedule(
            1, [&] { eng.post(pa, 2, 20,
                              [&] { order.push_back(0); }); },
            -1);
        eng.runUntil(100);
        EXPECT_EQ(order, (std::vector<int>{0, 1}))
            << "lookahead=" << lookahead;
    }
}

TEST(ShardedEngine, MessagesBeatTiedLocalEvents)
{
    // A message and a local event at the same (when, priority): the
    // message's reserved low seq band must dispatch it first,
    // matching what a serial single-queue run would do if the local
    // event were scheduled after the arrival.
    ShardedEngine eng(opts(2, 1, 5));
    const int port = eng.addPort(0);
    std::vector<char> order;
    eng.shard(1).schedule(20, [&] { order.push_back('l'); });
    eng.shard(0).schedule(
        1, [&] { eng.post(port, 1, 20, [&] { order.push_back('m'); }); });
    eng.runUntil(100);
    EXPECT_EQ(order, (std::vector<char>{'m', 'l'}));
}

TEST(ShardedEngine, StarvedShardStillAdvancesToTarget)
{
    ShardedEngine eng(opts(4, 2, 10));
    // Only shard 0 has work; shards 1-3 are starved the whole run.
    int ran = 0;
    for (int i = 1; i <= 50; ++i)
        eng.shard(0).schedule(i * 10, [&] { ++ran; });
    eng.runUntil(1000);
    EXPECT_EQ(ran, 50);
    for (int s = 0; s < 4; ++s)
        EXPECT_EQ(eng.shard(s).now(), 1000) << "shard " << s;
}

TEST(ShardedEngine, RepeatedRunUntilAdvancesIncrementally)
{
    // The profiler's warmup / measure / extend loop shape.
    ShardedEngine eng(opts(2, 2, 10));
    const int port = eng.addPort(0);
    std::uint64_t delivered = 0;
    struct Pump
    {
        ShardedEngine &eng;
        int port;
        std::uint64_t &delivered;
        void
        go()
        {
            eng.post(port, 1, eng.shard(0).now() + 10,
                     [this] { ++delivered; });
            eng.shard(0).scheduleIn(10, [this] { go(); });
        }
    } pump{eng, port, delivered};
    eng.shard(0).schedule(1, [&pump] { pump.go(); });

    eng.runUntil(100);
    const auto mid = delivered;
    EXPECT_GT(mid, 0u);
    eng.runUntil(200);
    EXPECT_GT(delivered, mid);
    EXPECT_EQ(eng.shard(0).now(), 200);
    EXPECT_EQ(eng.shard(1).now(), 200);
}

TEST(ShardedEngine, HandleCancelAcrossEpochsIsSafe)
{
    // ABA/lifetime: cancel local events on one shard while messages
    // from another shard land around them; slab slots are recycled
    // across epochs, so stale-generation handles must stay inert.
    ShardedEngine eng(opts(2, 2, 10));
    const int port = eng.addPort(0);
    std::vector<EventQueue::Handle> doomed;
    int ran_cancelled = 0;
    for (int i = 1; i <= 20; ++i)
        doomed.push_back(eng.shard(1).schedule(
            i * 50, [&] { ++ran_cancelled; }));
    int delivered = 0;
    struct Pump
    {
        ShardedEngine &eng;
        int port;
        int &delivered;
        int left = 40;
        void
        go()
        {
            if (--left < 0)
                return;
            eng.post(port, 1, eng.shard(0).now() + 10,
                     [this] { ++delivered; });
            eng.shard(0).scheduleIn(25, [this] { go(); });
        }
    } pump{eng, port, delivered};
    eng.shard(0).schedule(1, [&pump] { pump.go(); });

    eng.runUntil(40); // a few epochs in
    for (auto &h : doomed)
        h.cancel();
    // Cancelling again (stale generation after slot reuse) is a no-op.
    eng.runUntil(2000);
    for (auto &h : doomed)
        h.cancel();
    EXPECT_EQ(ran_cancelled, 0);
    EXPECT_EQ(delivered, 40);
}

TEST(ShardedEngine, ThreadsCappedAtShardCount)
{
    ShardedEngine eng(opts(2, 16, 10));
    EXPECT_EQ(eng.threads(), 2);
}

TEST(ShardedEngine, NextEventTimeSpansShards)
{
    ShardedEngine eng(opts(3, 1, 10));
    Tick when = 0;
    EXPECT_FALSE(eng.nextEventTime(when));
    eng.shard(2).schedule(70, [] {});
    eng.shard(1).schedule(30, [] {});
    ASSERT_TRUE(eng.nextEventTime(when));
    EXPECT_EQ(when, 30);
}

TEST(ShardedEngine, LocalOnlyPortPostsWithinShard)
{
    // A local_only port: one-tick minimum delay even under a large
    // lookahead, message-band seq (beats tied local events), and no
    // effect on the fused horizon of other shards.
    ShardedEngine eng(opts(2, 1, 1000));
    const int p = eng.addPort(0, /*local_only=*/true);
    std::vector<char> order;
    eng.shard(0).schedule(20, [&] { order.push_back('l'); });
    eng.shard(0).schedule(10, [&] {
        eng.post(p, 0, 20, [&] { order.push_back('m'); });
    });
    eng.shard(1).schedule(5000, [&] { order.push_back('x'); });
    eng.runUntil(6000);
    EXPECT_EQ(order, (std::vector<char>{'m', 'l', 'x'}));
    // No non-local port anywhere: the whole run is one fused epoch.
    EXPECT_EQ(eng.stats().epochs, 1u);
}

TEST(ShardedEngine, BatchWindowsKnobIsDigestInvariantButCheaper)
{
    // batch_windows=1 restores classic one-window epochs;
    // batch_windows=0 (adaptive) must produce the same observables
    // with no more epochs. Each destination shard keeps its own log,
    // written only by that shard: the interleaving *across* shards is
    // not an observable.
    auto run = [](std::uint64_t batch, std::uint64_t &epochs) {
        ShardedEngine::Options o = opts(3, 1, 10);
        o.batch_windows = batch;
        ShardedEngine eng(o);
        const int port = eng.addPort(0);
        std::vector<std::string> logs(3);
        struct Pump
        {
            ShardedEngine &eng;
            int port;
            std::vector<std::string> &logs;
            int left = 20;
            void
            go()
            {
                if (--left < 0)
                    return;
                const int dst = 1 + left % 2;
                eng.post(port, dst, eng.shard(0).now() + 10,
                         [this, dst] {
                             logs[static_cast<std::size_t>(dst)] +=
                                 std::to_string(dst) + "@" +
                                 std::to_string(eng.shard(dst).now()) +
                                 ";";
                         });
                eng.shard(0).scheduleIn(40, [this] { go(); });
            }
        } pump{eng, port, logs};
        eng.shard(0).schedule(1, [&pump] { pump.go(); });
        eng.runUntil(2000);
        epochs = eng.stats().epochs;
        return logs;
    };
    std::uint64_t classic_epochs = 0;
    std::uint64_t adaptive_epochs = 0;
    const auto classic = run(1, classic_epochs);
    const auto adaptive = run(0, adaptive_epochs);
    EXPECT_EQ(adaptive, classic);
    EXPECT_FALSE(classic[1].empty());
    EXPECT_FALSE(classic[2].empty());
    EXPECT_LE(adaptive_epochs, classic_epochs);
    EXPECT_GT(classic_epochs, 0u);
}

/** A receiver's local event chain: every 5 ticks it logs how many
 * messages it has seen, so a late delivery changes its log. */
struct Chain
{
    ShardedEngine *eng = nullptr;
    std::string *log = nullptr;
    int shard = 0;
    int seen = 0;

    void
    tick()
    {
        auto &eq = eng->shard(shard);
        *log += "t" + std::to_string(eq.now()) + ":" +
                std::to_string(seen) + ";";
        if (eq.now() < 1990)
            eq.scheduleIn(5, [this] { tick(); });
    }
};

/**
 * The fleet's shape in miniature: a root-only shard 0, the only
 * poster, pumps 250 messages (delays 10..13 ticks) round-robin into
 * three receiver shards that each run a local Chain.
 */
Observed
runRootPump(int threads, Tick lookahead, std::uint64_t batch)
{
    ShardedEngine::Options o = opts(4, threads, lookahead);
    o.batch_windows = batch;
    ShardedEngine eng(o);
    Observed r;
    r.per_shard.resize(4);
    std::array<Chain, 4> rx{};
    for (int s = 1; s < 4; ++s) {
        auto &c = rx[static_cast<std::size_t>(s)];
        c = Chain{&eng, &r.per_shard[static_cast<std::size_t>(s)], s};
        eng.shard(s).schedule(s, [&c] { c.tick(); });
    }
    struct Root
    {
        ShardedEngine &eng;
        int port;
        std::string &log;
        std::array<Chain, 4> &rx;
        int sent = 0;

        void
        go()
        {
            auto &eq = eng.shard(0);
            const int k = sent++;
            log += "p" + std::to_string(k) + "@" +
                   std::to_string(eq.now()) + ";";
            Chain &c = rx[static_cast<std::size_t>(1 + k % 3)];
            eng.post(port, c.shard, eq.now() + 10 + k % 4, [&c, k] {
                ++c.seen;
                *c.log += "m" + std::to_string(k) + "@" +
                          std::to_string(c.eng->shard(c.shard).now()) +
                          ";";
            });
            if (sent < 250)
                eq.scheduleIn(7, [this] { go(); });
        }
    } root{eng, eng.addPort(0), r.per_shard[0], rx};
    eng.shard(0).schedule(1, [&root] { root.go(); });
    r.executed = eng.runUntil(2000);
    r.epochs = eng.stats().epochs;
    return r;
}

TEST(ShardedEngine, LonePosterRunsAheadOfItsReceivers)
{
    // Nothing can post to a lone poster, so it runs up to
    // kRunAheadWindows lookaheads past its receivers and they follow
    // an epoch behind: far fewer epochs, the same per-shard logs as
    // the lookahead-0 merge.
    check::ScopedCapture cap;
    const Observed want = runRootPump(1, 0, 0);
    for (const int threads : {1, 2, 4}) {
        const Observed classic = runRootPump(threads, 10, 1);
        const Observed adaptive = runRootPump(threads, 10, 0);
        EXPECT_EQ(classic, want)
            << "threads=" << threads << " batch_windows=1";
        EXPECT_EQ(adaptive, want)
            << "threads=" << threads << " batch_windows=0";
        EXPECT_GT(classic.epochs, 100u) << "threads=" << threads;
        EXPECT_LE(adaptive.epochs * 8, classic.epochs)
            << "threads=" << threads << ": adaptive "
            << adaptive.epochs << " vs classic " << classic.epochs;
    }
    EXPECT_EQ(cap.total(), 0u);
}

/**
 * Two posters (shards 0 and 1) bounce tokens at exactly now + 10 and
 * copy every hop to receiver shard 2, which runs a local Chain.
 * Token A bounces 80 times from tick 1; token B 30 times from tick 5,
 * so late in the run one poster is idle while the other holds A.
 */
Observed
runPingPong(int threads, Tick lookahead)
{
    ShardedEngine eng(opts(3, threads, lookahead));
    Observed r;
    r.per_shard.resize(3);
    Chain rx{&eng, &r.per_shard[2], 2};
    eng.shard(2).schedule(2, [&rx] { rx.tick(); });
    const std::array<int, 2> ports{eng.addPort(0), eng.addPort(1)};
    struct Token
    {
        ShardedEngine &eng;
        const std::array<int, 2> &ports;
        std::vector<std::string> &logs;
        Chain &rx;
        char name;
        int left;

        void
        hop(int at)
        {
            auto &eq = eng.shard(at);
            logs[static_cast<std::size_t>(at)] +=
                std::string(1, name) + std::to_string(left) + "@" +
                std::to_string(eq.now()) + ";";
            const int port = ports[static_cast<std::size_t>(at)];
            eng.post(port, 2, eq.now() + 10, [this] {
                ++rx.seen;
                *rx.log += std::string(1, name) + "@" +
                           std::to_string(eng.shard(2).now()) + ";";
            });
            if (--left > 0)
                eng.post(port, 1 - at, eq.now() + 10,
                         [this, at] { hop(1 - at); });
        }
    };
    Token a{eng, ports, r.per_shard, rx, 'a', 80};
    Token b{eng, ports, r.per_shard, rx, 'b', 30};
    eng.shard(0).schedule(1, [&a] { a.hop(0); });
    eng.shard(1).schedule(5, [&b] { b.hop(1); });
    r.executed = eng.runUntil(2000);
    r.epochs = eng.stats().epochs;
    return r;
}

TEST(ShardedEngine, PostersReplyingAtTheLookaheadStayCausal)
{
    // The lead poster may run past the others' next events, but not
    // past the tick its own post could come back: a peer idle now can
    // be woken by the lead's post at gmin_post + L and reply a
    // lookahead later.
    check::ScopedCapture cap;
    const Observed want = runPingPong(1, 0);
    ASSERT_FALSE(want.per_shard[1].empty());
    for (const int threads : {1, 2, 3}) {
        const Observed got = runPingPong(threads, 10);
        EXPECT_EQ(got, want) << "threads=" << threads;
    }
    EXPECT_EQ(cap.count(check::Invariant::Causality), 0u);
    EXPECT_EQ(cap.total(), 0u);
}

TEST(ShardedEngine, RingOverflowDeliversEverything)
{
    // A burst past the inbox ring's capacity takes the arena
    // overflow path; nothing may be lost or reordered observably.
    ShardedEngine::Options o = opts(2, 2, 5);
    o.inbox_capacity = 4; // force overflow quickly
    ShardedEngine eng(o);
    const int port = eng.addPort(0);
    std::atomic<int> got{0};
    eng.shard(0).schedule(1, [&] {
        for (int i = 0; i < 200; ++i)
            eng.post(port, 1, 10 + i, [&] {
                got.fetch_add(1, std::memory_order_relaxed);
            });
    });
    eng.runUntil(1000);
    EXPECT_EQ(got.load(), 200);
    const auto st = eng.stats();
    EXPECT_EQ(st.messages, 200u);
    EXPECT_GT(st.ring_overflow, 0u);
}

TEST(ShardedEngine, BarrierCountsTrackEpochs)
{
    ShardedEngine eng(opts(4, 4, 10));
    const int port = eng.addPort(0);
    struct Pump
    {
        ShardedEngine &eng;
        int port;
        int left = 10;
        void
        go()
        {
            if (--left < 0)
                return;
            eng.post(port, 1 + left % 3,
                     eng.shard(0).now() + 10, [] {});
            eng.shard(0).scheduleIn(10, [this] { go(); });
        }
    } pump{eng, port};
    eng.shard(0).schedule(1, [&pump] { pump.go(); });
    eng.runUntil(500);
    const auto st = eng.stats();
    EXPECT_GT(st.epochs, 0u);
    EXPECT_EQ(st.barriers, 2 * st.epochs)
        << "one start + one end crossing per parallel epoch";
}

TEST(ShardedEngine, ChooserRunAllTerminatesAfterDrain)
{
    // Regression: the controlled (merge) drain used to spin forever
    // once every shard emptied — an empty peek at the kTickMax
    // sweep was misread as a stale cache, so mergeOne retried
    // endlessly instead of reporting quiescence (caught by the jetmc
    // models, which runAll() to completion under a chooser).
    struct DefaultChooser final : Chooser
    {
        int calls = 0;
        int
        choose(ChoiceKind, const std::int64_t *, int) override
        {
            ++calls;
            return 0;
        }
    } chooser;
    ShardedEngine eng(opts(2, 1, 1));
    const int port = eng.addPort(0);
    int ran = 0;
    // Tied events on both shards force at least one merge choice.
    eng.shard(0).schedule(5, [&] { ++ran; });
    eng.shard(1).schedule(5, [&] { ++ran; });
    eng.shard(0).schedule(1, [&] {
        ++ran;
        eng.post(port, 1, 3, [&] { ++ran; });
    });
    eng.setChooser(&chooser);
    EXPECT_EQ(eng.runAll(), 4u);
    EXPECT_EQ(ran, 4);
    EXPECT_GT(chooser.calls, 0);
    Tick when = 0;
    EXPECT_FALSE(eng.nextEventTime(when));
}

TEST(ShardedEngine, RunAllDrainsEverything)
{
    ShardedEngine eng(opts(3, 2, 10));
    const int port = eng.addPort(0);
    int ran = 0;
    eng.shard(0).schedule(1, [&] {
        ++ran;
        eng.post(port, 1, 11, [&] { ++ran; });
        eng.post(port, 2, 12, [&] { ++ran; });
    });
    EXPECT_EQ(eng.runAll(), 3u);
    EXPECT_EQ(ran, 3);
    Tick when = 0;
    EXPECT_FALSE(eng.nextEventTime(when));
}

} // namespace
} // namespace jetsim::sim
