/**
 * @file
 * Sharded-engine stress: oversubscription, shard-count far beyond
 * core-count, and repeated full runs. tools/ci.sh pass 2c runs this
 * binary under JETSIM_SANITIZE=thread (--tsan), which is what turns
 * races on the shard clocks, claims and outboxes — if any — into
 * failures.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/digest.hh"
#include "core/fleet.hh"
#include "sim/sharded_engine.hh"

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

/** Heavy cross-shard chatter: every shard pumps messages to every
 * other shard while executing local work each tick. */
std::uint64_t
chatter(int shards, int threads, int rounds)
{
    ShardedEngine eng(opts(shards, threads, 4));
    const int k = eng.shards();
    std::vector<int> ports;
    for (int s = 0; s < k; ++s)
        ports.push_back(eng.addPort(s));

    struct Node
    {
        ShardedEngine *eng;
        const std::vector<int> *ports;
        std::vector<Node> *nodes;
        int shard;
        int left;
        /** Messages delivered *to* this shard — only ever touched by
         * the thread running this shard, so no atomics needed. */
        std::uint64_t received = 0;

        void
        pump()
        {
            if (left-- <= 0)
                return;
            auto &eq = eng->shard(shard);
            for (int dst = 0; dst < eng->shards(); ++dst)
                eng->post((*ports)[static_cast<std::size_t>(shard)],
                          dst, eq.now() + 4, [ns = nodes, dst] {
                              ++(*ns)[static_cast<std::size_t>(dst)]
                                    .received;
                          });
            eq.scheduleIn(4, [this] { pump(); });
        }
    };
    std::vector<Node> nodes;
    nodes.reserve(static_cast<std::size_t>(k));
    for (int s = 0; s < k; ++s)
        nodes.push_back(Node{&eng, &ports, &nodes, s, rounds});
    for (int s = 0; s < k; ++s)
        eng.shard(s).schedule(
            1, [&nodes, s] { nodes[static_cast<std::size_t>(s)].pump(); });
    eng.runAll();

    std::uint64_t total = 0;
    for (const auto &n : nodes)
        total += n.received;
    return total;
}

TEST(ShardedStress, OversubscribedThreadsMatchSerialTotals)
{
    // Far more worker threads than this host has cores: the clock
    // loop must stay correct (and live) under arbitrary preemption.
    const unsigned cores = std::thread::hardware_concurrency();
    const int threads = static_cast<int>(cores ? cores * 4 : 8);
    const std::uint64_t want = chatter(8, 1, 50);
    EXPECT_EQ(chatter(8, threads, 50), want);
    EXPECT_EQ(want, 8ull * 8ull * 50ull);
}

TEST(ShardedStress, ShardCountBeyondCoreCount)
{
    const std::uint64_t want = chatter(16, 1, 20);
    EXPECT_EQ(chatter(16, 8, 20), want);
    EXPECT_EQ(want, 16ull * 16ull * 20ull);
}

TEST(ShardedStress, RepeatedRunsReuseWorkersSafely)
{
    // One engine, many runUntil() cycles: workers park and restart
    // across runs without losing events.
    ShardedEngine eng(opts(4, 4, 8));
    std::atomic<std::uint64_t> ran{0};
    const int port = eng.addPort(0);
    for (int cycle = 1; cycle <= 25; ++cycle) {
        const Tick base = eng.shard(0).now();
        for (int s = 0; s < 4; ++s)
            eng.shard(s).schedule(base + 3, [&] {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        eng.shard(0).schedule(base + 2, [&eng, port, base, &ran] {
            eng.post(port, 3, base + 10, [&ran] {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        });
        eng.runUntil(base + 20);
    }
    // Per cycle: 4 local events + 1 delivered cross-shard message.
    EXPECT_EQ(ran.load(), 25ull * 5ull);
}

TEST(ShardedStress, ConcurrentFleetDigestStaysGolden)
{
    // A real fleet under the parallel clock loop, repeated: the kind
    // of run CI's TSan pass hammers. Digest must never wobble.
    jetsim::core::FleetSpec spec;
    for (int d = 0; d < 6; ++d) {
        jetsim::core::FleetDevice dev;
        dev.device = d % 2 ? "nano" : "orin-nano";
        dev.model = "resnet18";
        spec.devices.push_back(dev);
    }
    spec.balancer_rate = 250.0;
    spec.warmup = sim::msec(5);
    spec.duration = sim::msec(25);

    const auto want =
        jetsim::core::resultDigest(jetsim::core::runFleet(spec, {}));
    for (int rep = 0; rep < 3; ++rep) {
        jetsim::core::FleetOptions o;
        o.shards = 6;
        o.threads = 6;
        EXPECT_EQ(jetsim::core::resultDigest(
                      jetsim::core::runFleet(spec, o)),
                  want)
            << "rep " << rep;
    }
}

} // namespace
} // namespace jetsim::sim
