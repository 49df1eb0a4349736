/**
 * @file
 * Concurrency stress for core::Runner and the process-wide state it
 * exposed: an oversubscribed pool (threads >> cores) hammering specs
 * with progress callbacks, plus regression tests for
 * the latent global-state races the pool surfaced (the JetSan
 * check::Reporter, the models/zoo and soc::findDevice static
 * tables). tools/ci.sh runs this binary under
 * JETSIM_SANITIZE=thread, where TSan turns any missing
 * synchronisation into a hard failure; the digest comparisons turn
 * any cross-thread *value* leakage into one too.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "check/reporter.hh"
#include "core/digest.hh"
#include "core/env.hh"
#include "core/profiler.hh"
#include "core/runner.hh"
#include "models/zoo.hh"
#include "soc/device_spec.hh"

namespace jetsim {
namespace {

core::ExperimentSpec
tinySpec(std::uint64_t seed, int batch, int procs)
{
    core::ExperimentSpec s;
    s.device = seed % 2 ? "orin-nano" : "nano";
    s.model = seed % 3 ? "resnet50" : "yolov8n";
    s.precision =
        seed % 2 ? soc::Precision::Fp16 : soc::Precision::Int8;
    s.batch = batch;
    s.processes = procs;
    s.warmup = sim::msec(20);
    s.duration = sim::msec(60);
    s.seed = seed;
    return s;
}

TEST(RunnerStress, OversubscribedPoolStaysDeterministic)
{
    // Threads >> cores: every scheduling interleaving the host OS can
    // produce must yield the same bits.
    std::vector<core::ExperimentSpec> specs;
    for (std::uint64_t i = 0; i < 24; ++i)
        specs.push_back(tinySpec(i + 1, 1 + static_cast<int>(i % 3),
                                 1 + static_cast<int>(i % 2)));

    core::Runner serial(1);
    const auto reference = serial.run(specs);

    std::atomic<int> progress_calls{0};
    core::Runner oversub(32);
    const auto results =
        oversub.run(specs, [&](const std::string &) {
            progress_calls.fetch_add(1, std::memory_order_relaxed);
        });

    EXPECT_EQ(progress_calls.load(), static_cast<int>(specs.size()));
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(core::resultDigest(results[i]),
                  core::resultDigest(reference[i]))
            << specs[i].label();
}

// ---------------------------------------------------------------
// Regression tests for the global state the pool exposed. Each runs
// the hazardous operation on two raw threads; under TSan a relapse
// is a hard failure, and the digest diffs catch value corruption
// even in plain builds.
// ---------------------------------------------------------------

TEST(GlobalState, TwoThreadsSameSpecIdenticalDigests)
{
    const auto spec = tinySpec(5, 2, 2);
    std::uint64_t d1 = 0;
    std::uint64_t d2 = 0;
    std::thread t1([&] {
        d1 = core::resultDigest(core::runExperiment(spec));
    });
    std::thread t2([&] {
        d2 = core::resultDigest(core::runExperiment(spec));
    });
    t1.join();
    t2.join();
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(d1,
              core::resultDigest(core::runExperiment(spec)));
}

TEST(GlobalState, ReporterCountsAreExactUnderContention)
{
    check::ScopedCapture cap;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 250;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i)
                check::Reporter::instance().report(
                    check::Severity::Warning,
                    check::Invariant::Plausibility,
                    "tests.runner_stress", check::kTimeUnknown,
                    "thread %d event %d", t, i);
        });
    }
    for (auto &t : threads)
        t.join();
    // Pre-mutex, the unsynchronised ++total_ dropped increments.
    EXPECT_EQ(cap.total(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(cap.count(check::Invariant::Plausibility),
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(GlobalState, EnvSnapshotSafeFromConcurrentFirstTouch)
{
    // core::env() replaced the scattered getenv calls with a magic-
    // static snapshot; concurrent first-touch from worker threads
    // must initialise exactly once and every reader must see the
    // same immutable struct (under TSan an init race is fatal).
    const core::Env *seen[4] = {};
    std::vector<std::thread> threads;
    for (auto *&slot : seen)
        threads.emplace_back([&slot] { slot = &core::env(); });
    for (auto &t : threads)
        t.join();
    for (const auto *p : seen)
        EXPECT_EQ(p, &core::env());
}

TEST(GlobalState, StaticTablesSafeFromTwoThreads)
{
    // models/zoo and the soc device tables are function-local
    // statics; concurrent first-touch and lookups must be safe and
    // yield identical tables on both threads.
    auto probe = [] {
        std::size_t layers = 0;
        for (const auto &name : models::allModelNames())
            layers += models::modelByName(name).layers().size();
        std::size_t devices = 0;
        for (const auto &name : soc::deviceNames())
            devices += soc::findDevice(name).has_value() ? 1 : 0;
        return layers + 1000 * devices;
    };
    std::size_t a = 0;
    std::size_t b = 0;
    std::thread t1([&] { a = probe(); });
    std::thread t2([&] { b = probe(); });
    t1.join();
    t2.join();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, probe());
}

} // namespace
} // namespace jetsim
