/**
 * @file
 * The shared JSON codec: every core struct with a field list
 * round-trips bit-exactly with every field set to a non-default value
 * (a member missing from its list comes back defaulted and fails the
 * defaulted operator==), and the checked reader rejects malformed
 * numbers, documents and fields with the offending field's path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/experiment.hh"
#include "core/fleet.hh"
#include "sim/json.hh"

namespace jetsim {
namespace {

template <class T>
T
roundTrip(const T &x)
{
    const std::string text = sim::toJson(x, "test", 3);
    T back;
    std::string err;
    EXPECT_TRUE(sim::fromJson(text, "test", 3, back, err))
        << err << "\n" << text;
    return back;
}

/** Decode @p text as a "test": 1 document; returns the error. */
template <class T>
std::string
decodeError(const std::string &text)
{
    T x;
    std::string err;
    EXPECT_FALSE(sim::fromJson(text, "test", 1, x, err)) << text;
    return err;
}

prof::Cdf
cdf(std::initializer_list<double> xs, bool sorted)
{
    prof::Cdf c;
    for (const double x : xs)
        c.add(x);
    if (sorted)
        c.quantile(0.5);
    return c;
}

core::ExperimentSpec
spec()
{
    core::ExperimentSpec s;
    s.device = "nano";
    s.model = "yolov8n";
    s.precision = soc::Precision::Int8;
    s.batch = 4;
    s.processes = 3;
    s.phase = core::Phase::Deep;
    s.warmup = 123456789;
    s.duration = 987654321012;
    s.pre_enqueue = 0;
    s.dvfs = false;
    s.biglittle = false;
    s.spatial_sharing = true;
    s.seed = 0xfedcba9876543210ull;
    return s;
}

core::ProcessMetrics
proc(double base)
{
    core::ProcessMetrics p;
    p.name = "resnet50/int8.\"1\"\n";
    p.deployed = true;
    p.throughput = base + 0.1;
    p.ec_ms = base + 0.2;
    p.pipeline_ms = base + 0.3;
    p.enqueue_ms = base + 0.4;
    p.launch_ms_per_ec = base + 0.5;
    p.sync_ms = base + 0.6;
    p.blocking_ms_per_ec = base + 0.7;
    p.resched_ms_per_ec = base + 0.8;
    p.cpu_ms_per_ec = base + 0.9;
    p.cache_ms_per_ec = 1.0 / 3.0;
    p.migrations = 11;
    p.preemptions = 12;
    p.ecs = 0xffffffffffffffffull;
    return p;
}

core::MixedExperimentSpec
mixedSpec()
{
    core::MixedExperimentSpec s;
    s.device = "a40";
    s.workloads = {{"resnet18", soc::Precision::Tf32, 2, 3},
                   {"mobilenet_v2", soc::Precision::Fp32, 8, 1}};
    s.phase = core::Phase::Deep;
    s.warmup = 5;
    s.duration = 6;
    s.pre_enqueue = 3;
    s.dvfs = false;
    s.biglittle = false;
    s.spatial_sharing = true;
    s.seed = 9;
    return s;
}

TEST(JsonCodec, ExperimentStructsRoundTripEveryField)
{
    EXPECT_EQ(roundTrip(spec()), spec());
    EXPECT_EQ(roundTrip(proc(1e-300)), proc(1e-300));
    EXPECT_EQ(roundTrip(mixedSpec().workloads[0]),
              mixedSpec().workloads[0]);
    EXPECT_EQ(roundTrip(mixedSpec()), mixedSpec());

    core::ExperimentResult r;
    r.spec = spec();
    r.all_deployed = true;
    r.deployed_count = 3;
    r.total_throughput = 0.1;
    r.throughput_per_process = 0.2;
    r.avg_power_w = 0.3;
    r.max_power_w = 0.4;
    r.gpu_util_pct = 0.5;
    r.mem_pct = 0.6;
    r.workload_mem_mb = 0.7;
    r.dvfs_throttle_events = -2;
    r.final_freq_frac = 0.8;
    r.sm_active = cdf({3.0, 1.0, 2.0}, false);
    r.issue_slot = cdf({0.3, 0.1, 0.2}, true);
    r.tc_util = cdf({-1.5}, false);
    r.kernel_us_mean = 0.9;
    r.kernels = 77;
    r.procs = {proc(1.0), proc(2.0)};
    r.mean = proc(3.0);
    EXPECT_EQ(roundTrip(r), r);

    core::MixedExperimentResult m;
    m.spec = mixedSpec();
    m.all_deployed = true;
    m.deployed_count = 4;
    m.total_throughput = 0.1;
    m.avg_power_w = 0.2;
    m.max_power_w = 0.3;
    m.gpu_util_pct = 0.4;
    m.mem_pct = 0.5;
    m.workload_mem_mb = 0.6;
    m.throughput_by_workload = {1.25, 2.5};
    m.procs = {proc(4.0)};
    m.sm_active = cdf({1.0, 2.0}, true);
    m.issue_slot = cdf({5.0, 4.0}, false);
    m.tc_util = cdf({7.0}, true);
    m.kernel_us_mean = 0.7;
    m.kernels = 8;
    m.dvfs_throttle_events = 9;
    m.final_freq_frac = 0.5;
    EXPECT_EQ(roundTrip(m), m);
}

TEST(JsonCodec, FleetStructsRoundTripEveryField)
{
    const core::FleetDevice d{"nano", "resnet18", soc::Precision::Fp16,
                              3, 12.5};
    EXPECT_EQ(roundTrip(d), d);

    core::FleetSpec s;
    s.devices = {d, {"orin-nano", "yolov8n", soc::Precision::Tf32, 2,
                     0.1}};
    s.balancer_rate = 33.3;
    s.dispatch_latency = 7;
    s.hierarchical = true;
    s.fanout_latency = 8;
    s.warmup = 9;
    s.duration = 10;
    s.seed = 11;
    EXPECT_EQ(roundTrip(s), s);

    core::FleetOptions o;
    o.shards = 5;
    o.threads = 6;
    o.lookahead = 0;
    EXPECT_EQ(roundTrip(o), o);
}

TEST(JsonCodec, CdfRestoresItsExactState)
{
    // The mean is an insertion-order sum that sorting never moves; a
    // decoded CDF must carry the same sum and sort state.
    const auto c = cdf({0.1, 1e16, -1e16, 0.2, 0.3}, true);
    const auto back = roundTrip(c);
    EXPECT_EQ(back, c);
    EXPECT_EQ(back.mean(), c.mean());
    EXPECT_EQ(back.quantile(0.25), c.quantile(0.25));
}

TEST(JsonCodec, CheckedNumberParsing)
{
    EXPECT_EQ(sim::parseNumber<int>("-42"), -42);
    EXPECT_EQ(sim::parseNumber<std::int64_t>("9223372036854775807"),
              INT64_MAX);
    for (const char *bad : {"", " 5", "5 ", "5x", "0x10", "1.0", "abc",
                            "+5", "2147483648"})
        EXPECT_FALSE(sim::parseNumber<int>(bad)) << bad;

    EXPECT_EQ(sim::parseNumber<std::uint64_t>("18446744073709551615"),
              UINT64_MAX);
    for (const char *bad : {"-1", "18446744073709551616", ""})
        EXPECT_FALSE(sim::parseNumber<std::uint64_t>(bad)) << bad;

    EXPECT_EQ(sim::parseNumber<double>("2.5e-3"), 2.5e-3);
    EXPECT_EQ(sim::parseNumber<double>("4.9406564584124654e-324"),
              4.9406564584124654e-324);
    for (const char *bad : {"", "xyz", "1e999", "inf", "nan", "1.5s",
                            " 1"})
        EXPECT_FALSE(sim::parseNumber<double>(bad)) << bad;
}

TEST(JsonCodec, EnumNamesComeFromEachEnumsHeader)
{
    // Phase and Precision each supply enumValues() next to name();
    // the codec and enumFromName() know neither.
    for (const auto p : core::kAllPhases)
        EXPECT_EQ(sim::enumFromName<core::Phase>(core::name(p)), p);
    EXPECT_FALSE(sim::enumFromName<core::Phase>("Deep"));
    EXPECT_FALSE(sim::enumFromName<core::Phase>(""));

    std::string text = sim::toJson(spec(), "test", 1);
    const std::string deep = "\"phase\":\"deep\"";
    const auto at = text.find(deep);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, deep.size(), "\"phase\":\"medium\"");
    EXPECT_EQ(decodeError<core::ExperimentSpec>(text),
              "phase: 'medium' is not one of light deep");
}

TEST(JsonCodec, ReaderNamesTheBadField)
{
    using core::FleetOptions;
    const auto err = [](const std::string &body) {
        return decodeError<FleetOptions>("{\"test\": 1, " + body + "}");
    };
    const std::string ok =
        "\"shards\": 1, \"threads\": 1, \"lookahead\": -1";
    EXPECT_EQ(err("\"shards\": 1, \"threads\": 1"),
              "lookahead: missing");
    EXPECT_EQ(err(ok + ", \"extra\": {\"x\": 1}"),
              "extra: unexpected key");
    EXPECT_EQ(err(ok + ", \"shards\": 2"), "shards: repeated key");
    EXPECT_EQ(err("\"threads\": \"1\", " + ok),
              "threads: '\"1\"' is not an integer in [-2147483648, "
              "2147483647]");
    EXPECT_EQ(err("\"lookahead\": 1, \"threads\": 1, "
                  "\"shards\": 2147483648"),
              "shards: '2147483648' is not an integer in "
              "[-2147483648, 2147483647]");
    EXPECT_EQ(err(ok + " \"x\""), "document: expected \"key\": at byte 55");

    EXPECT_EQ(decodeError<core::FleetSpec>(
                  "{\"test\": 1, \"devices\": [{\"device\": \"nano\", "
                  "\"model\": \"resnet18\", \"precision\": \"int4\", "
                  "\"batch\": 1, \"local_rate\": 0}]}"),
              "devices[0].precision: 'int4' is not one of int8 fp16 "
              "tf32 fp32");
    EXPECT_EQ(decodeError<core::FleetSpec>(
                  "{\"test\": 1, \"devices\": [{\"device\": \"nano\""),
              "devices[0]: expected \"key\": at byte 41");
    EXPECT_EQ(decodeError<FleetOptions>("{\"test\": 2}"),
              "document: not a \"test\": 1 document");
    EXPECT_EQ(decodeError<FleetOptions>("[1]"),
              "document: not a \"test\": 1 document");
    EXPECT_EQ(decodeError<FleetOptions>("{\"test\": 1, " + ok + "} x"),
              "document: trailing text at byte 56");
}

} // namespace
} // namespace jetsim
