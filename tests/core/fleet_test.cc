/**
 * @file
 * Fleet golden layer: for every zoo model x both boards, the sharded
 * engine's digest is bit-identical to the serial engine's across the
 * full shard x thread matrix — the acceptance matrix of the sharded
 * core. Plus unit coverage of the fleet layer itself.
 */

#include "core/fleet.hh"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "check/reporter.hh"
#include "core/digest.hh"
#include "soc/shard_map.hh"

namespace jetsim::core {
namespace {

FleetSpec
cell(const std::string &device, const std::string &model,
     int boards = 4)
{
    FleetSpec spec;
    for (int d = 0; d < boards; ++d) {
        FleetDevice dev;
        dev.device = device;
        dev.model = model;
        dev.precision = soc::Precision::Int8;
        dev.batch = 1;
        spec.devices.push_back(dev);
    }
    spec.balancer_rate = 300.0;
    spec.warmup = sim::msec(15);
    spec.duration = sim::msec(120);
    spec.seed = 7;
    return spec;
}

// Strings, not char pointers: gtest prints the parameter into the
// listed test name, and a pointer would put a load address (different
// on every run) there.
class FleetGolden
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

TEST_P(FleetGolden, ShardMatrixBitIdenticalToSerial)
{
    check::ScopedCapture cap;
    const auto [device, model] = GetParam();
    const FleetSpec spec = cell(device, model);

    const FleetResult serial = runFleet(spec, {});
    const auto want = resultDigest(serial);
    // The run must have actually moved traffic, or the digests are
    // vacuously equal. (Completions can be zero on the slow board
    // with heavy models inside a short window — arrivals cannot.)
    ASSERT_TRUE(serial.all_deployed);
    ASSERT_GT(serial.dispatched, 0u);
    std::uint64_t arrived = 0;
    for (const auto &d : serial.devices)
        arrived += d.arrived;
    ASSERT_GT(arrived, 0u);
    ASSERT_GT(serial.events, 100u);

    for (const int shards : {1, 2, 4, 8})
        for (const int threads : {1, 2, 8}) {
            FleetOptions o;
            o.shards = shards;
            o.threads = threads;
            const FleetResult got = runFleet(spec, o);
            EXPECT_EQ(resultDigest(got), want)
                << spec.label() << " shards=" << shards
                << " threads=" << threads;
            EXPECT_EQ(got.events, serial.events);
        }
    EXPECT_EQ(cap.total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ZooBothBoards, FleetGolden,
    ::testing::Combine(::testing::Values("orin-nano", "nano"),
                       ::testing::Values("resnet50", "fcn_resnet50",
                                         "yolov8n", "resnet18",
                                         "mobilenet_v2")),
    [](const auto &info) {
        std::string s =
            std::get<0>(info.param) + "_" + std::get<1>(info.param);
        for (auto &c : s)
            if (c == '-')
                c = '_';
        return s;
    });

FleetSpec
bigFleet(int boards, bool hierarchical)
{
    // Homogeneous wide fleet: cheap per-board model so hundreds of
    // boards stay test-sized; rate scaled so every board sees
    // traffic inside the short window.
    FleetSpec spec = cell("orin-nano", "mobilenet_v2", boards);
    spec.balancer_rate = 25.0 * boards;
    spec.warmup = sim::msec(4);
    spec.duration = sim::msec(30);
    spec.seed = 23;
    spec.hierarchical = hierarchical;
    return spec;
}

TEST(Fleet, SixteenShardMatrixBitIdenticalToSerial)
{
    // The 4-board golden cells clamp at 4 shards; the 16-shard
    // matrix row needs a wider fleet.
    check::ScopedCapture cap;
    const FleetSpec spec = bigFleet(20, false);
    const FleetResult serial = runFleet(spec, {});
    ASSERT_GT(serial.dispatched, 0u);
    const auto want = resultDigest(serial);
    // 3 does not divide 16; 4 is the benchmark's thread count.
    for (const int threads : {1, 2, 3, 4, 8}) {
        FleetOptions o;
        o.shards = 16;
        o.threads = threads;
        const FleetResult got = runFleet(spec, o);
        EXPECT_EQ(resultDigest(got), want) << "threads=" << threads;
        EXPECT_EQ(got.events, serial.events);
    }
    EXPECT_EQ(cap.total(), 0u);
}

TEST(FleetDeathTest, UnknownNamesExitOnTheCaller)
{
    // Names resolve before any worker builds a board: an unknown one
    // is a user error (exit 1 with the lookup's message), never an
    // abort on a worker.
    const auto user_error = testing::ExitedWithCode(1);
    FleetOptions o;
    o.shards = 16;
    o.threads = 4;
    FleetSpec bad_model = bigFleet(20, false);
    bad_model.devices[7].model = "resnet51";
    EXPECT_EXIT(runFleet(bad_model, o), user_error,
                "unknown model 'resnet51'");
    FleetSpec bad_device = bigFleet(20, false);
    bad_device.devices[13].device = "orin-mega";
    EXPECT_EXIT(runFleet(bad_device, o), user_error,
                "unknown device 'orin-mega'");
}

TEST(Fleet, BoardThatCannotDeployClearsAllDeployed)
{
    // FCN-ResNet50 at fp32 batch 40 does not fit the Nano's memory;
    // its shard's failed deploy must still reach the fleet's flag.
    FleetSpec spec = bigFleet(20, false);
    spec.devices[5].device = "nano";
    spec.devices[5].model = "fcn_resnet50";
    spec.devices[5].precision = soc::Precision::Fp32;
    spec.devices[5].batch = 40;
    const FleetResult serial = runFleet(spec, {});
    for (const int threads : {1, 4}) {
        FleetOptions o;
        o.shards = 16;
        o.threads = threads;
        const FleetResult got = runFleet(spec, o);
        EXPECT_FALSE(got.all_deployed) << "threads=" << threads;
        EXPECT_FALSE(got.devices[5].deployed) << "threads=" << threads;
        EXPECT_TRUE(got.devices[4].deployed) << "threads=" << threads;
        EXPECT_GT(got.dispatched, 0u) << "threads=" << threads;
        EXPECT_EQ(resultDigest(got), resultDigest(serial))
            << "threads=" << threads;
    }
}

TEST(Fleet, HierarchicalFleetBitIdenticalAcrossTopologies)
{
    // The two-hop root->sub->device dispatch must stay
    // topology-invariant: serial, merge fallback (lookahead 0) and
    // the per-shard clock loop all one digest, on a fleet
    // wide enough (256 boards) that the balancerReserved map
    // actually reserves shard 0.
    check::ScopedCapture cap;
    const FleetSpec spec = bigFleet(256, true);
    const FleetResult serial = runFleet(spec, {});
    ASSERT_TRUE(serial.all_deployed);
    ASSERT_GT(serial.dispatched, 0u);
    const auto want = resultDigest(serial);

    FleetOptions merge;
    merge.shards = 8;
    merge.threads = 1;
    merge.lookahead = 0;
    const FleetResult m = runFleet(spec, merge);
    EXPECT_EQ(resultDigest(m), want) << "merge fallback";
    EXPECT_EQ(m.events, serial.events);

    for (const int shards : {4, 16})
        for (const int threads : {1, 8}) {
            FleetOptions o;
            o.shards = shards;
            o.threads = threads;
            const FleetResult got = runFleet(spec, o);
            EXPECT_EQ(resultDigest(got), want)
                << "shards=" << shards << " threads=" << threads;
            EXPECT_EQ(got.events, serial.events);
        }
    EXPECT_EQ(cap.total(), 0u);
}

TEST(Fleet, ThousandBoardFleetCompletesBitIdentical)
{
    // The headline acceptance run: 1000 boards, digests bit-identical
    // between serial, the lookahead-0 merge, and the hierarchical
    // fleet on per-shard clocks.
    check::ScopedCapture cap;
    FleetSpec spec = bigFleet(1000, true);
    spec.duration = sim::msec(12);
    const FleetResult serial = runFleet(spec, {});
    ASSERT_TRUE(serial.all_deployed);
    ASSERT_GT(serial.dispatched, 0u);
    const auto want = resultDigest(serial);

    FleetOptions merge;
    merge.shards = 16;
    merge.threads = 1;
    merge.lookahead = 0;
    EXPECT_EQ(resultDigest(runFleet(spec, merge)), want)
        << "lookahead=0 merge";

    FleetOptions clocks;
    clocks.shards = 16;
    clocks.threads = 2;
    const FleetResult got = runFleet(spec, clocks);
    EXPECT_EQ(resultDigest(got), want) << "per-shard clocks";
    EXPECT_EQ(got.events, serial.events);
    // The per-shard clock loop ran, not the serial merge, and the
    // slowest shard's clock advanced.
    EXPECT_EQ(got.merge_steps, 0u);
    EXPECT_GT(got.epochs, 0u);
    EXPECT_EQ(cap.total(), 0u);
}

TEST(Fleet, HierarchicalLatencyIncludesFanoutHop)
{
    FleetSpec flat = cell("orin-nano", "resnet18", 2);
    flat.balancer_rate = 100.0;
    FleetSpec hier = flat;
    hier.hierarchical = true;
    hier.fanout_latency = sim::msec(3);
    const FleetResult a = runFleet(flat, {});
    const FleetResult b = runFleet(hier, {});
    ASSERT_GT(a.total_throughput, 0.0);
    EXPECT_GE(b.devices[0].p50_ms, a.devices[0].p50_ms + 2.5);
}

TEST(Fleet, BalancerReservedMapShape)
{
    const auto m = soc::ShardMap::balancerReserved(6, 4);
    EXPECT_EQ(m.shards(), 4);
    EXPECT_TRUE(m.devicesOn(0).empty()); // root-only shard
    for (int d = 0; d < 6; ++d)
        EXPECT_EQ(m.shardOf(d), 1 + d % 3);
    // Clamped: never an empty device shard.
    const auto tight = soc::ShardMap::balancerReserved(2, 16);
    EXPECT_EQ(tight.shards(), 3);
    // Degenerate serial topology: no shard to reserve.
    const auto serial = soc::ShardMap::balancerReserved(5, 1);
    EXPECT_EQ(serial.shards(), 1);
    EXPECT_EQ(serial.devicesOn(0).size(), 5u);
}

TEST(Fleet, LabelRunLengthCompressesWideFleets)
{
    FleetSpec spec = cell("orin-nano", "mobilenet_v2", 256);
    spec.hierarchical = true;
    const std::string l = spec.label();
    EXPECT_NE(l.find("256x orin-nano/mobilenet_v2/int8 b1"),
              std::string::npos)
        << l;
    EXPECT_NE(l.find(" h"), std::string::npos) << l;
    EXPECT_LT(l.size(), 120u) << l;
    // Heterogeneous runs stay distinct.
    FleetSpec het = cell("orin-nano", "resnet18", 2);
    het.devices[1].model = "yolov8n";
    EXPECT_NE(het.label().find(" + "), std::string::npos);
}

TEST(Fleet, RepeatRunsAreBitIdentical)
{
    const FleetSpec spec = cell("orin-nano", "resnet50", 3);
    FleetOptions o;
    o.shards = 3;
    o.threads = 2;
    EXPECT_EQ(resultDigest(runFleet(spec, o)),
              resultDigest(runFleet(spec, o)));
}

TEST(Fleet, BalancerSpreadsLoadRoundRobin)
{
    const FleetSpec spec = cell("orin-nano", "resnet18", 4);
    const FleetResult r = runFleet(spec, {});
    ASSERT_EQ(r.devices.size(), 4u);
    // Round-robin dispatch: arrivals differ by at most a rotation.
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto &d : r.devices) {
        lo = std::min(lo, d.arrived);
        hi = std::max(hi, d.arrived);
    }
    EXPECT_LE(hi - lo, 1u);
}

TEST(Fleet, LatencyIncludesDispatchHop)
{
    // Same fleet, two dispatch latencies: the slower network shifts
    // the fleet p50 by at least the added hop.
    FleetSpec fast = cell("orin-nano", "resnet18", 2);
    fast.balancer_rate = 100.0;
    FleetSpec slow = fast;
    slow.dispatch_latency = fast.dispatch_latency + sim::msec(5);
    const FleetResult a = runFleet(fast, {});
    const FleetResult b = runFleet(slow, {});
    ASSERT_GT(a.total_throughput, 0.0);
    EXPECT_GE(b.devices[0].p50_ms, a.devices[0].p50_ms + 4.0);
}

TEST(Fleet, LocalTrafficRidesAlongBalancerTraffic)
{
    FleetSpec spec = cell("orin-nano", "resnet18", 2);
    spec.balancer_rate = 80.0;
    FleetSpec with_local = spec;
    with_local.devices[0].local_rate = 60.0;
    const FleetResult base = runFleet(spec, {});
    const FleetResult extra = runFleet(with_local, {});
    EXPECT_GT(extra.devices[0].arrived, base.devices[0].arrived);
}

TEST(Fleet, HeterogeneousFleetDigestsStable)
{
    FleetSpec spec;
    const char *const models[] = {"resnet50", "yolov8n",
                                  "mobilenet_v2"};
    const char *const boards[] = {"orin-nano", "nano", "orin-nano"};
    for (int d = 0; d < 3; ++d) {
        FleetDevice dev;
        dev.device = boards[d];
        dev.model = models[d];
        dev.precision = soc::Precision::Fp16;
        spec.devices.push_back(dev);
    }
    spec.balancer_rate = 150.0;
    spec.warmup = sim::msec(10);
    spec.duration = sim::msec(40);
    const auto want = resultDigest(runFleet(spec, {}));
    for (const int shards : {2, 3}) {
        FleetOptions o;
        o.shards = shards;
        o.threads = 2;
        EXPECT_EQ(resultDigest(runFleet(spec, o)), want)
            << "shards=" << shards;
    }
}

TEST(Fleet, DigestCoversTheFieldListAndNotTheDiagnostics)
{
    FleetResult base;
    base.spec = cell("orin-nano", "resnet50", 2);
    base.devices.resize(2);
    for (auto &dev : base.devices) {
        dev.name = "srv";
        dev.device = "orin-nano";
        dev.arrived = 10;
        dev.served = 9;
        dev.throughput = 90.0;
        dev.p50_ms = 3.0;
        dev.p99_ms = 5.0;
        dev.max_ms = 6.0;
        dev.max_queue = 2;
    }
    base.total_throughput = 180.0;
    base.p99_ms = 5.0;
    base.dispatched = 20;
    base.events = 1000;
    const auto key = resultDigest(base);

    auto mutated = [&](auto mutate) {
        auto r = base;
        mutate(r);
        return resultDigest(r);
    };
    using R = FleetResult;

    // Engine diagnostics vary with (shards, threads): never digested.
    EXPECT_EQ(key, mutated([](R &r) { r.epochs = 7; }));
    EXPECT_EQ(key, mutated([](R &r) { r.barriers = 7; }));
    EXPECT_EQ(key, mutated([](R &r) { r.merge_steps = 7; }));
    EXPECT_EQ(key, mutated([](R &r) { r.messages = 7; }));

    EXPECT_NE(key, mutated([](R &r) { r.spec.seed += 1; }));
    EXPECT_NE(key, mutated([](R &r) { r.all_deployed = true; }));
    EXPECT_NE(key, mutated([](R &r) { r.devices.pop_back(); }));
    EXPECT_NE(key, mutated([](R &r) { r.total_throughput += 1; }));
    EXPECT_NE(key, mutated([](R &r) { r.p99_ms += 1; }));
    EXPECT_NE(key, mutated([](R &r) { r.dispatched += 1; }));
    EXPECT_NE(key, mutated([](R &r) { r.events += 1; }));

    // Every field of one device, here the second.
    auto dev = [&](auto mutate) {
        return mutated([&](R &r) { mutate(r.devices[1]); });
    };
    using D = FleetDeviceResult;
    EXPECT_NE(key, dev([](D &d) { d.name = "srv1"; }));
    EXPECT_NE(key, dev([](D &d) { d.device = "nano"; }));
    EXPECT_NE(key, dev([](D &d) { d.deployed = true; }));
    EXPECT_NE(key, dev([](D &d) { d.arrived += 1; }));
    EXPECT_NE(key, dev([](D &d) { d.served += 1; }));
    EXPECT_NE(key, dev([](D &d) { d.throughput += 1; }));
    EXPECT_NE(key, dev([](D &d) { d.p50_ms += 1; }));
    EXPECT_NE(key, dev([](D &d) { d.p99_ms += 1; }));
    EXPECT_NE(key, dev([](D &d) { d.max_ms += 1; }));
    EXPECT_NE(key, dev([](D &d) { d.max_queue += 1; }));
}

} // namespace
} // namespace jetsim::core
