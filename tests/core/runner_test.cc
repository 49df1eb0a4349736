/**
 * @file
 * Golden determinism tests for core::Runner: the parallel executor
 * must be *bit-identical* to the serial path. For a representative
 * grid on both boards, every cell's core::resultDigest under
 * threads=N (N in {2, 8}) must equal the threads=1 digest, across
 * two repeated runs — the executable form of this PR's proof
 * obligation. Also covers submission-order results, serialized
 * in-order progress delivery, and JETSIM_THREADS resolution.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "check/reporter.hh"
#include "core/digest.hh"
#include "core/profiler.hh"
#include "core/env.hh"
#include "core/runner.hh"
#include "core/sweep.hh"

namespace jetsim {
namespace {

core::ExperimentSpec
baseSpec(const std::string &device)
{
    core::ExperimentSpec s;
    s.device = device;
    s.model = "resnet50";
    s.precision = soc::Precision::Fp16;
    s.warmup = sim::msec(50);
    s.duration = sim::msec(200);
    s.seed = 11;
    return s;
}

/** Representative grid: batch x processes x phase on one board. */
std::vector<core::ExperimentSpec>
grid(const std::string &device)
{
    std::vector<core::ExperimentSpec> specs;
    for (const int procs : {1, 2}) {
        for (const int batch : {1, 4}) {
            auto s = baseSpec(device);
            s.batch = batch;
            s.processes = procs;
            specs.push_back(s);
        }
    }
    // One deep-phase cell so counter CDFs and kernel spans are in
    // the digests too.
    auto deep = baseSpec(device);
    deep.phase = core::Phase::Deep;
    specs.push_back(deep);
    return specs;
}

std::vector<std::uint64_t>
digestsOf(const std::vector<core::ExperimentResult> &results)
{
    std::vector<std::uint64_t> ds;
    ds.reserve(results.size());
    for (const auto &r : results)
        ds.push_back(core::resultDigest(r));
    return ds;
}

class RunnerGolden : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RunnerGolden, ParallelBitIdenticalToSerial)
{
    check::ScopedCapture cap;
    const auto specs = grid(GetParam());

    core::Runner serial(1);
    const auto reference = digestsOf(serial.run(specs));

    for (const int n : {2, 8}) {
        for (int repeat = 0; repeat < 2; ++repeat) {
            core::Runner parallel(n);
            ASSERT_EQ(parallel.threads(), n);
            const auto got = digestsOf(parallel.run(specs));
            ASSERT_EQ(got.size(), reference.size());
            for (std::size_t i = 0; i < reference.size(); ++i)
                EXPECT_EQ(got[i], reference[i])
                    << "cell " << specs[i].label() << " diverged at "
                    << n << " threads (repeat " << repeat << ")";
        }
    }
    EXPECT_EQ(cap.total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothBoards, RunnerGolden,
                         ::testing::Values("orin-nano", "nano"));

TEST(Runner, SerialPathMatchesDirectRunExperiment)
{
    const auto spec = baseSpec("orin-nano");
    core::Runner serial(1);
    const auto via_runner = serial.run({spec});
    ASSERT_EQ(via_runner.size(), 1u);
    EXPECT_EQ(core::resultDigest(via_runner[0]),
              core::resultDigest(core::runExperiment(spec)));
}

TEST(Runner, ResultsInSubmissionOrder)
{
    const auto specs = grid("orin-nano");
    core::Runner runner(4);
    const auto results = runner.run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(results[i].spec.label(), specs[i].label());
}

TEST(Runner, ProgressSerializedAndInSubmissionOrder)
{
    const auto specs = grid("orin-nano");
    std::vector<std::string> seen;
    core::Runner runner(8);
    // The callback appends without its own lock: Runner guarantees
    // serialized delivery (TSan would flag a violation).
    runner.run(specs, [&](const std::string &label) {
        seen.push_back(label);
    });
    ASSERT_EQ(seen.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(seen[i], specs[i].label());
}

TEST(Runner, SweepsMatchLegacySerialResults)
{
    // The sweep helpers are now Runner-backed; their output must
    // stay bit-identical to the pre-Runner cell-by-cell loop.
    auto base = baseSpec("orin-nano");
    const std::vector<int> batches = {1, 2};
    const std::vector<int> procs = {1, 2};

    const auto swept = core::sweepGrid(base, batches, procs);
    ASSERT_EQ(swept.size(), batches.size() * procs.size());
    std::size_t i = 0;
    for (const int p : procs) {
        for (const int b : batches) {
            auto cell = base;
            cell.batch = b;
            cell.processes = p;
            EXPECT_EQ(core::resultDigest(swept[i]),
                      core::resultDigest(core::runExperiment(cell)));
            ++i;
        }
    }
}

TEST(Runner, ThreadResolutionHonoursEnvOverride)
{
    // Runner reads the cached startup environment (core::env()), so
    // runtime setenv calls must be followed by a quiescent reload.
    ::setenv("JETSIM_THREADS", "3", 1);
    core::reloadEnv();
    EXPECT_EQ(core::Runner::resolveThreads(0), 3);
    // An explicit request beats the environment.
    EXPECT_EQ(core::Runner::resolveThreads(5), 5);
    ::setenv("JETSIM_THREADS", "1", 1);
    core::reloadEnv();
    core::Runner serial;
    EXPECT_EQ(serial.threads(), 1);
    ::unsetenv("JETSIM_THREADS");
    core::reloadEnv();
    EXPECT_GE(core::Runner::resolveThreads(0), 1);
}

TEST(Runner, EmptyBatchIsANoOp)
{
    core::Runner runner(4);
    bool called = false;
    const auto results = runner.run(
        {}, [&](const std::string &) { called = true; });
    EXPECT_TRUE(results.empty());
    EXPECT_FALSE(called);
}

} // namespace
} // namespace jetsim
