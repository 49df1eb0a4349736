/**
 * @file
 * Differential fuzz battery (the tentpole proof): randomized
 * multi-device fleet deployments run serial and sharded, digests
 * compared bit for bit. A failure dumps a minimised replay spec that
 * `simcheck --fleet-replay=<file>` re-executes directly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/digest.hh"
#include "core/fleet.hh"
#include "sim/rng.hh"

namespace jetsim::core {
namespace {

const char *const kDevices[] = {"orin-nano", "nano"};
const char *const kModels[] = {"resnet50", "fcn_resnet50", "yolov8n",
                               "resnet18", "mobilenet_v2"};
const soc::Precision kPrecisions[] = {soc::Precision::Fp16,
                                      soc::Precision::Int8};

FleetSpec
randomSpec(sim::Rng &rng)
{
    FleetSpec spec;
    const int n = static_cast<int>(rng.uniformInt(2, 6));
    for (int d = 0; d < n; ++d) {
        FleetDevice dev;
        dev.device = kDevices[rng.uniformInt(0, 1)];
        dev.model = kModels[rng.uniformInt(0, 4)];
        dev.precision = kPrecisions[rng.uniformInt(0, 1)];
        dev.batch = static_cast<int>(rng.uniformInt(1, 4));
        // A third of the boards also take local open-loop traffic.
        dev.local_rate =
            rng.uniform() < 0.33 ? rng.uniform(20.0, 120.0) : 0.0;
        spec.devices.push_back(dev);
    }
    spec.balancer_rate = rng.uniform(50.0, 600.0);
    spec.dispatch_latency = sim::usec(rng.uniform(20.0, 500.0));
    // Half the fleets dispatch through the two-hop hierarchical
    // balancer so the fuzzer also covers root->sub->device ordering.
    spec.hierarchical = rng.uniform() < 0.5;
    if (spec.hierarchical)
        spec.fanout_latency = sim::usec(rng.uniform(10.0, 200.0));
    spec.warmup = sim::msec(10);
    spec.duration = sim::msec(40);
    spec.seed = rng.next();
    return spec;
}

/**
 * Shrink a failing spec: drop devices / zero local rates while the
 * serial-vs-sharded mismatch persists, so the dumped replay is the
 * smallest configuration that still disagrees.
 */
FleetSpec
minimise(FleetSpec spec, const FleetOptions &sharded)
{
    const auto differs = [&sharded](const FleetSpec &s) {
        return resultDigest(runFleet(s, {})) !=
               resultDigest(runFleet(s, sharded));
    };
    bool shrunk = true;
    while (shrunk && spec.devices.size() > 1) {
        shrunk = false;
        for (std::size_t d = 0; d < spec.devices.size(); ++d) {
            FleetSpec trial = spec;
            trial.devices.erase(trial.devices.begin() +
                                static_cast<std::ptrdiff_t>(d));
            if (differs(trial)) {
                spec = std::move(trial);
                shrunk = true;
                break;
            }
        }
    }
    for (auto &dev : spec.devices) {
        if (dev.local_rate == 0.0)
            continue;
        FleetSpec trial = spec;
        trial.devices[static_cast<std::size_t>(
                          &dev - spec.devices.data())]
            .local_rate = 0.0;
        if (differs(trial))
            dev.local_rate = 0.0;
    }
    return spec;
}

void
expectIdentical(const FleetSpec &spec, const FleetOptions &sharded,
                const char *what)
{
    const auto serial = resultDigest(runFleet(spec, {}));
    const auto got = resultDigest(runFleet(spec, sharded));
    if (serial == got)
        return;
    const FleetSpec min = minimise(spec, sharded);
    const std::string path =
        ::testing::TempDir() + "fleet_replay_" +
        std::to_string(min.seed) + ".json";
    writeFleetReplay(min, sharded, path);
    FAIL() << what << ": sharded digest diverged from serial for "
           << spec.label() << "\nminimised replay spec: " << path
           << "\nre-run with: simcheck --fleet-replay=" << path;
}

TEST(ShardedDiff, RandomFleetsSerialVsSharded)
{
    sim::Rng rng(0xd1ffe12ull);
    for (int i = 0; i < 12; ++i) {
        const FleetSpec spec = randomSpec(rng);
        for (const auto &[shards, threads] :
             {std::pair{2, 2}, std::pair{4, 8}, std::pair{8, 2}}) {
            FleetOptions o;
            o.shards = shards;
            o.threads = threads;
            expectIdentical(spec, o, "clock path");
        }
        // Zero-lookahead fallback: same digests through the serial
        // cross-shard merge.
        FleetOptions merge;
        merge.shards = 4;
        merge.threads = 1;
        merge.lookahead = 0;
        expectIdentical(spec, merge, "merge fallback");
    }
}

TEST(ShardedDiff, TinyLookaheadStressesEpochBoundaries)
{
    // lookahead of 1 tick: the shortest horizons and slices, every
    // horizon edge case (messages landing at a horizon, ties at it).
    sim::Rng rng(0xfeedull);
    for (int i = 0; i < 3; ++i) {
        FleetSpec spec = randomSpec(rng);
        spec.duration = sim::msec(15);
        FleetOptions o;
        o.shards = 4;
        o.threads = 2;
        o.lookahead = 1;
        expectIdentical(spec, o, "lookahead=1");
    }
}

TEST(ShardedDiff, ReplaySpecRoundTrips)
{
    sim::Rng rng(0xabcdull);
    FleetSpec spec = randomSpec(rng);
    // Pin the hierarchical fields so the round trip exercises both
    // new replay keys regardless of what the rng rolled.
    spec.hierarchical = true;
    spec.fanout_latency = sim::usec(77);
    FleetOptions o;
    o.shards = 3;
    o.threads = 2;
    o.lookahead = 12345;
    const std::string path =
        ::testing::TempDir() + "fleet_replay_roundtrip.json";
    ASSERT_TRUE(writeFleetReplay(spec, o, path));

    FleetSpec back;
    FleetOptions back_o;
    std::string err;
    ASSERT_TRUE(readFleetReplay(path, back, back_o, err)) << err;
    EXPECT_EQ(back, spec);
    EXPECT_EQ(back_o, o);
    // The round-tripped spec reproduces the original's digest.
    EXPECT_EQ(resultDigest(runFleet(back, back_o)),
              resultDigest(runFleet(spec, o)));
    std::remove(path.c_str());
}

} // namespace
} // namespace jetsim::core
