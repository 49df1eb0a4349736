/**
 * @file
 * ShardedEngine unit tests: the per-shard clock loop, the merge
 * fallback, cross-shard message determinism, and the lookahead edge
 * cases the differential battery builds on.
 */

#include "sim/sharded_engine.hh"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
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
 * The engine's stats are diagnostics, not compared.
 */
struct Observed
{
    std::vector<std::string> per_shard;
    std::uint64_t executed = 0;
    ShardedEngine::Stats stats;

    bool
    operator==(const Observed &o) const
    {
        return per_shard == o.per_shard && executed == o.executed;
    }
};

/**
 * A fixed 4-"device" workload: every device ticks locally and sends
 * round-robin messages to the next device, with deliberate (when,
 * priority) collisions at every multiple of 10. With @p per_shard_setup
 * each shard schedules its own devices' first ticks in forEachShard,
 * and two more rounds read every shard's clock, one between two runs
 * and one after the last.
 */
Observed
runWorkload(int shards, int threads, Tick lookahead,
            bool per_shard_setup = false)
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
    const auto start = [&](int d) {
        eng.shard(d % k).schedule(
            10, [&devs, d] { devs[static_cast<std::size_t>(d)].tick(); });
    };
    for (int d = 0; d < kDevices; ++d) {
        devs[static_cast<std::size_t>(d)] =
            Dev{&eng, &obs, &ports, d, d % k};
        if (!per_shard_setup)
            start(d);
    }
    if (!per_shard_setup) {
        obs.executed = eng.runUntil(500);
        return obs;
    }
    eng.forEachShard([&](int s) {
        for (int d = s; d < kDevices; d += k)
            start(d);
    });
    std::vector<Tick> clocks(static_cast<std::size_t>(k));
    const auto readClocks = [&](int s) {
        clocks[static_cast<std::size_t>(s)] = eng.shard(s).now();
    };
    obs.executed = eng.runUntil(250);
    eng.forEachShard(readClocks);
    EXPECT_EQ(clocks, std::vector<Tick>(clocks.size(), 250));
    obs.executed += eng.runUntil(500);
    eng.forEachShard(readClocks);
    EXPECT_EQ(clocks, std::vector<Tick>(clocks.size(), 500));
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

TEST(ShardedEngine, ForEachShardRunsEveryShardOnceOnItsOwner)
{
    const auto caller = std::this_thread::get_id();
    for (const int shards : {1, 2, 16})
        for (const int threads : {1, 2, 3, 4, 16}) {
            ShardedEngine eng(opts(shards, threads, 10));
            const int t = eng.threads();
            const auto n = static_cast<std::size_t>(shards);
            // Each call writes only its own shard's entries.
            std::vector<int> calls(n, 0);
            std::vector<std::thread::id> ran_on(n);
            std::vector<int> turn(n, -1);
            std::atomic<int> next_turn{0};
            eng.forEachShard([&](int s) {
                const auto i = static_cast<std::size_t>(s);
                ++calls[i];
                ran_on[i] = std::this_thread::get_id();
                turn[i] = next_turn.fetch_add(1);
            });
            for (int s = 0; s < shards; ++s) {
                const auto i = static_cast<std::size_t>(s);
                SCOPED_TRACE("shards=" + std::to_string(shards) +
                             " threads=" + std::to_string(threads) +
                             " shard=" + std::to_string(s));
                EXPECT_EQ(calls[i], 1);
                EXPECT_EQ(ran_on[i] == caller, s % t == 0);
                for (int u = 0; u < s; ++u) {
                    const auto j = static_cast<std::size_t>(u);
                    EXPECT_EQ(ran_on[i] == ran_on[j], s % t == u % t);
                    if (s % t == u % t) {
                        EXPECT_LT(turn[j], turn[i]);
                    }
                }
            }
        }

    // With a Chooser installed every shard runs on the caller, in order.
    struct DefaultChooser final : Chooser
    {
        int
        choose(ChoiceKind, const std::int64_t *, int) override
        {
            return 0;
        }
    } chooser;
    ShardedEngine eng(opts(16, 4, 10));
    eng.setChooser(&chooser);
    std::vector<int> order;
    eng.forEachShard([&](int s) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(s);
    });
    std::vector<int> want(16);
    for (int s = 0; s < 16; ++s)
        want[static_cast<std::size_t>(s)] = s;
    EXPECT_EQ(order, want);
}

TEST(ShardedEngine, ForEachShardAroundRunsKeepsTheSerialResult)
{
    const Observed serial = runWorkload(1, 1, 10);
    for (const int shards : {1, 2, 16})
        for (const int threads : {1, 2, 3, 4, 16})
            EXPECT_EQ(runWorkload(shards, threads, 10, true), serial)
                << "shards=" << shards << " threads=" << threads;
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
    // the merge fallback and the clock path.
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
    // Disarm timers on one shard while messages from another shard
    // land around them: each disarm removes the timer's entry from a
    // heap the message inserts keep reshaping, and no withdrawn
    // occurrence may run.
    ShardedEngine eng(opts(2, 2, 10));
    const int port = eng.addPort(0);
    struct Doomed
    {
        int *ran;
        EventQueue::Timer timer{
            [](void *self) { ++*static_cast<Doomed *>(self)->ran; },
            this};
    };
    int ran_disarmed = 0;
    std::vector<std::unique_ptr<Doomed>> doomed;
    for (int i = 1; i <= 20; ++i) {
        doomed.push_back(
            std::unique_ptr<Doomed>(new Doomed{&ran_disarmed}));
        eng.shard(1).arm(doomed.back()->timer, i * 50);
    }
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

    eng.runUntil(40); // a few slices in
    for (auto &d : doomed)
        eng.shard(1).disarm(d->timer);
    eng.runUntil(2000);
    // Disarming again, long after, is a no-op.
    for (auto &d : doomed)
        eng.shard(1).disarm(d->timer);
    EXPECT_EQ(ran_disarmed, 0);
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
    // effect on other shards' horizons.
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
    // No non-local port anywhere: nothing bounds either horizon, so
    // the floor rises once, when the second shard reaches the target.
    EXPECT_EQ(eng.stats().epochs, 1u);
}

TEST(ShardedEngine, ThreadAndShardCountsAreDigestInvariant)
{
    // A lone poster on shard 0 pumps messages into shards 1 and 2;
    // any extra shards stay idle. Each destination shard keeps its
    // own log, written only by that shard: the interleaving *across*
    // shards is not an observable.
    auto run = [](int shards, int threads, Tick lookahead) {
        ShardedEngine eng(opts(shards, threads, lookahead));
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
        return logs;
    };
    const auto want = run(3, 1, 0);
    EXPECT_FALSE(want[1].empty());
    EXPECT_FALSE(want[2].empty());
    for (const int shards : {3, 4, 7})
        for (const int threads : {1, 2, 3, 7})
            EXPECT_EQ(run(shards, threads, 10), want)
                << "shards=" << shards << " threads=" << threads;
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
 * three receiver shards that each run a local Chain. On one thread
 * the root also records how far its clock ever led a receiver's.
 */
Observed
runRootPump(int threads, Tick lookahead, Tick *max_lead = nullptr)
{
    ShardedEngine eng(opts(4, threads, lookahead));
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
        Tick *max_lead;
        int sent = 0;

        void
        go()
        {
            auto &eq = eng.shard(0);
            if (max_lead != nullptr)
                for (int s = 1; s < 4; ++s)
                    *max_lead = std::max(*max_lead,
                                         eq.now() - eng.shard(s).now());
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
    } root{eng, eng.addPort(0), r.per_shard[0], rx, max_lead};
    eng.shard(0).schedule(1, [&root] { root.go(); });
    r.executed = eng.runUntil(2000);
    r.stats = eng.stats();
    return r;
}

TEST(ShardedEngine, LonePosterRunsAheadOfItsReceivers)
{
    // Nothing can post to a lone poster, so only the backlog bound
    // holds it: 32 lookaheads (320 ticks) past the slowest receiver.
    // The per-shard logs equal the lookahead-0 merge's either way.
    check::ScopedCapture cap;
    const Observed want = runRootPump(1, 0);
    Tick lead = 0;
    const Observed one = runRootPump(1, 10, &lead);
    EXPECT_EQ(one, want);
    EXPECT_GT(lead, 10) << "the poster never ran past one window";
    EXPECT_LE(lead, 320) << "the poster broke the backlog bound";
    EXPECT_EQ(one.stats.barriers, 0u)
        << "one worker always has the slowest shard to run";
    EXPECT_GT(one.stats.epochs, 0u);
    for (const int threads : {2, 4}) {
        const Observed got = runRootPump(threads, 10);
        EXPECT_EQ(got, want) << "threads=" << threads;
        // An outbox holds what the root posted between a receiver's
        // two drains: from one window below that receiver's clock to 32
        // windows above it, one post per 7 ticks at most 48 (an
        // unbounded root would park a third of all 250 posts there).
        EXPECT_LE(got.stats.max_inbox, 48u) << "threads=" << threads;
        EXPECT_GT(got.stats.epochs, 0u) << "threads=" << threads;
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
    r.stats = eng.stats();
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

TEST(ShardedEngine, BurstDeeperThanOneBlockDeliversEverything)
{
    // One event posts more messages than an outbox block holds: the
    // outbox grows, and every message runs at its own tick.
    constexpr int kBurst = 200;
    static_assert(kBurst > static_cast<int>(Outbox<int>::kBlockNodes));
    ShardedEngine eng(opts(2, 2, 5));
    const int port = eng.addPort(0);
    std::atomic<int> got{0};
    std::atomic<int> late{0};
    eng.shard(0).schedule(1, [&] {
        for (int i = 0; i < kBurst; ++i)
            eng.post(port, 1, 10 + i, [&eng, &got, &late, i] {
                if (eng.shard(1).now() != 10 + i)
                    late.fetch_add(1, std::memory_order_relaxed);
                got.fetch_add(1, std::memory_order_relaxed);
            });
    });
    eng.runUntil(1000);
    EXPECT_EQ(got.load(), kBurst);
    EXPECT_EQ(late.load(), 0);
    EXPECT_EQ(eng.stats().messages, static_cast<std::uint64_t>(kBurst));
}

TEST(ShardedEngine, CountersTrackTheSlowestClock)
{
    // epochs counts rises of the smallest clock over all shards;
    // barriers counts a worker finding nothing it could run.
    const auto run = [](int threads) {
        ShardedEngine eng(opts(4, threads, 10));
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
        return eng.stats();
    };
    const auto one = run(1);
    // Every rise is at least one tick, and the floor went 0 -> 501.
    EXPECT_GT(one.epochs, 0u);
    EXPECT_LE(one.epochs, 501u);
    EXPECT_EQ(one.barriers, 0u)
        << "the slowest shard can always run, so one worker never idles";
    EXPECT_EQ(run(1).epochs, one.epochs) << "one thread is deterministic";
    const auto four = run(4);
    EXPECT_GT(four.epochs, 0u);
    EXPECT_LE(four.epochs, 501u);
    EXPECT_EQ(four.merge_steps, 0u);

    // No poster at all: every shard reaches the target in one slice,
    // and only the last of them raises the floor.
    ShardedEngine quiet(opts(3, 1, 1000));
    for (int s = 0; s < 3; ++s)
        quiet.shard(s).schedule(10 * (s + 1), [] {});
    quiet.runUntil(500);
    EXPECT_EQ(quiet.stats().epochs, 1u);
    EXPECT_EQ(quiet.stats().barriers, 0u);
}

/**
 * A lone poster on shard 0 posts to shards 1 and 2 every L = 10
 * ticks. With @p stall, shard 1's event at tick 5 waits (at most 5 s
 * of wall time) until shard 2 has run its event at tick 45 — the
 * callback only observes progress, so the logs do not depend on it.
 */
Observed
runStalled(int threads, Tick lookahead, bool stall, bool &released)
{
    ShardedEngine eng(opts(3, threads, lookahead));
    Observed r;
    r.per_shard.resize(3);
    std::atomic<bool> ran45{false};
    released = !stall;
    eng.shard(1).schedule(5, [&] {
        r.per_shard[1] += "stall@5;";
        if (!stall)
            return;
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!ran45.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::yield();
        released = ran45.load(std::memory_order_acquire);
    });
    eng.shard(2).schedule(45, [&] {
        r.per_shard[2] += "local@45;";
        ran45.store(true, std::memory_order_release);
    });
    struct Root
    {
        ShardedEngine &eng;
        int port;
        Observed &r;
        void
        go()
        {
            auto &eq = eng.shard(0);
            for (const int dst : {1, 2})
                eng.post(port, dst, eq.now() + 10, [this, dst] {
                    r.per_shard[static_cast<std::size_t>(dst)] +=
                        "m@" + std::to_string(eng.shard(dst).now()) +
                        ";";
                });
            if (eq.now() < 150)
                eq.scheduleIn(10, [this] { go(); });
        }
    } root{eng, eng.addPort(0), r};
    eng.shard(0).schedule(1, [&root] { root.go(); });
    r.executed = eng.runUntil(200);
    r.stats = eng.stats();
    return r;
}

TEST(ShardedEngine, StalledShardDoesNotStallTheOthers)
{
    // Shard 2 advances on the poster's clock alone: it need not wait
    // for shard 1, whose worker is stuck inside one event.
    bool unused = false;
    const Observed want = runStalled(1, 0, false, unused);
    bool released = false;
    const Observed got = runStalled(2, 10, true, released);
    EXPECT_TRUE(released)
        << "shard 2 never reached tick 45 while shard 1 was stalled";
    EXPECT_EQ(got, want);
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
