/**
 * @file
 * Tests for jetmc, the schedule-space model checker: the toylock
 * self-test models (seeded deadlock found + minimised, safe variant
 * proved clean), deployment digest-independence, the DPOR reduction
 * and its collapse under injected dependence, counterexample
 * round-trip + replay, and the TraceChooser record/replay contract.
 */

#include "mc/explorer.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "mc/ce.hh"
#include "mc/deployment.hh"
#include "mc/toylock.hh"
#include "mc/trace.hh"
#include "sim/event_queue.hh"
#include "soc/precision.hh"

using namespace jetsim;

namespace {

mc::DeployConfig
twoProcConfig(bool shared_buffer)
{
    mc::DeployConfig dc;
    dc.device = "orin-nano";
    dc.max_ecs = 1;
    dc.shared_buffer = shared_buffer;
    for (int i = 0; i < 2; ++i) {
        mc::DeployConfig::Proc p;
        p.model = "resnet50";
        p.precision = soc::Precision::Fp16;
        dc.procs.push_back(p);
    }
    return dc;
}

mc::ExploreConfig
smallSearch()
{
    mc::ExploreConfig cfg;
    cfg.depth = 12;
    cfg.max_runs = 5000;
    return cfg;
}

} // namespace

TEST(ToyLockTest, OrderedVariantProvesDeadlockFree)
{
    mc::ToyLockModel m(false);
    const auto rep = mc::explore(m, smallSearch());
    EXPECT_TRUE(rep.proved());
    EXPECT_FALSE(rep.deadlock);
    EXPECT_GT(rep.runs, 1u) << "tie at t=0 must branch";
    EXPECT_TRUE(rep.ce_script.empty());
}

TEST(ToyLockTest, InvertedVariantDeadlocksOffTheDefaultSchedule)
{
    mc::ToyLockModel m(true);

    // The default schedule itself is safe — the deadlock hides in a
    // non-default tie-break, which is the point of the self-test.
    const auto def = m.run({});
    EXPECT_FALSE(def.deadlock);

    const auto rep = mc::explore(m, smallSearch());
    EXPECT_TRUE(rep.deadlock);
    EXPECT_EQ(rep.ce_what, "deadlock");
    ASSERT_FALSE(rep.ce_script.empty());
    // Minimisation strips trailing defaults, so the last scripted
    // choice is a real deviation.
    EXPECT_NE(rep.ce_script.back(), 0);

    // The counterexample replays: same script, same verdict.
    const auto again = m.run(rep.ce_script);
    EXPECT_TRUE(again.deadlock);
    EXPECT_EQ(mc::failureKind(again, rep.digest), "deadlock");
}

TEST(ToyLockTest, FullyDependentModelGetsNoReduction)
{
    // ToyLockModel declares every pair of processes dependent, so the
    // DPOR search must degrade to exactly the naive DFS.
    mc::ToyLockModel m(false);
    auto cfg = smallSearch();
    const auto dpor = mc::explore(m, cfg);
    cfg.dpor = false;
    const auto naive = mc::explore(m, cfg);
    EXPECT_EQ(dpor.runs, naive.runs);
    EXPECT_EQ(dpor.pruned, 0u);
    EXPECT_EQ(dpor.digest, naive.digest);
}

TEST(DeploymentMcTest, TwoProcessDigestIsScheduleIndependent)
{
    mc::DeploymentModel m(twoProcConfig(false));
    const auto rep = mc::explore(m, smallSearch());
    EXPECT_TRUE(rep.proved())
        << rep.ce_what << ": " << rep.ce_detail;
    EXPECT_GT(rep.runs, 1u);
    EXPECT_NE(rep.digest, 0u);
    ASSERT_EQ(rep.max_block_ms.size(), 2u);
}

TEST(DeploymentMcTest, DisjointProcessesPruneSharedBufferDoesNot)
{
    // Private per-process buffers → independent → the reduction
    // skips commuting branches. One seeded cross-process buffer →
    // full dependence → nothing is prunable.
    mc::DeploymentModel disjoint(twoProcConfig(false));
    const auto d = mc::explore(disjoint, smallSearch());
    EXPECT_GT(d.pruned, 0u);

    mc::DeploymentModel shared(twoProcConfig(true));
    const auto s = mc::explore(shared, smallSearch());
    EXPECT_EQ(s.pruned, 0u);
    EXPECT_TRUE(s.clean()) << s.ce_what;
}

TEST(DeploymentMcTest, DependenceIsSameProcessOrSharedBuffer)
{
    // Each process owns its stream and device memory, so distinct
    // processes are independent; a seeded shared buffer makes every
    // pair dependent.
    for (const bool shared : {false, true}) {
        auto cfg = twoProcConfig(shared);
        cfg.procs.push_back(cfg.procs.front());
        const mc::DeploymentModel m(cfg);
        ASSERT_EQ(m.procCount(), 3);
        for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b)
                EXPECT_EQ(m.dependent(a, b), shared || a == b)
                    << "shared=" << shared << " a=" << a << " b=" << b;
    }
}

TEST(DeploymentMcTest, DefaultScheduleMatchesReferenceDigest)
{
    // Run 0 of the search is the empty script; re-running it
    // standalone must reproduce the reference digest bit-exactly
    // (runs are pure functions of (config, script)).
    mc::DeploymentModel m(twoProcConfig(false));
    const auto rep = mc::explore(m, smallSearch());
    const auto solo = m.run({});
    EXPECT_EQ(solo.digest, rep.digest);
    EXPECT_FALSE(solo.deadlock);
    EXPECT_FALSE(solo.bound_exceeded);
}

TEST(CounterExampleTest, DeploymentRoundTripPreservesConfig)
{
    // Every field non-default: one left out of a field list comes
    // back defaulted and fails the defaulted operator==.
    mc::CounterExample ce;
    ce.model = "deployment";
    ce.what = "digest-mismatch";
    ce.detail = "proc 1 \"stalled\"";
    ce.ref_digest = 0xfedcba9876543210u;
    ce.script = {0, 2, -1};
    ce.deploy = twoProcConfig(true);
    ce.deploy.device = "nano";
    ce.deploy.procs[1] = {"yolov8n", soc::Precision::Int8, 4};
    ce.deploy.pre_enqueue = 0;
    ce.deploy.seed = 42;
    ce.deploy.max_events = 77777;

    const std::string path =
        testing::TempDir() + "/jetmc_ce_roundtrip.json";
    ASSERT_TRUE(mc::writeCe(ce, path));

    mc::CounterExample back;
    std::string err;
    ASSERT_TRUE(mc::readCe(path, back, err)) << err;
    EXPECT_EQ(back, ce);
    std::remove(path.c_str());
}

TEST(CounterExampleTest, ToyLockCeReplaysEndToEnd)
{
    mc::ToyLockModel m(true);
    const auto rep = mc::explore(m, smallSearch());
    ASSERT_TRUE(rep.deadlock);

    mc::CounterExample ce;
    ce.model = "toylock-inverted";
    ce.what = rep.ce_what;
    ce.detail = rep.ce_detail;
    ce.ref_digest = rep.digest;
    ce.script = rep.ce_script;

    const std::string path =
        testing::TempDir() + "/jetmc_ce_toylock.json";
    ASSERT_TRUE(mc::writeCe(ce, path));
    mc::CounterExample back;
    std::string err;
    ASSERT_TRUE(mc::readCe(path, back, err)) << err;
    EXPECT_EQ(mc::replayCe(back), "");
    std::remove(path.c_str());
}

TEST(CounterExampleTest, ReaderRejectsGarbage)
{
    const std::string path = testing::TempDir() + "/jetmc_bad.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"not_a_ce\": true}\n", f);
    std::fclose(f);
    mc::CounterExample ce;
    std::string err;
    EXPECT_FALSE(mc::readCe(path, ce, err));
    EXPECT_FALSE(err.empty());
    std::remove(path.c_str());
}

TEST(TraceChooserTest, ClampsStaleScriptEntriesToDefault)
{
    mc::TraceChooser tc({1, 99, -3});
    const std::int64_t actors[3] = {10, 11, 12};
    EXPECT_EQ(tc.choose(sim::ChoiceKind::EventTie, actors, 3), 1);
    EXPECT_EQ(tc.choose(sim::ChoiceKind::EventTie, actors, 3), 0);
    EXPECT_EQ(tc.choose(sim::ChoiceKind::EventTie, actors, 2), 0);
    // Past the script: default, still recorded.
    EXPECT_EQ(tc.choose(sim::ChoiceKind::GpuChannel, actors, 2), 0);
    ASSERT_EQ(tc.trace().size(), 4u);
    EXPECT_EQ(tc.trace()[0].picked, 1);
    EXPECT_EQ(tc.trace()[0].n, 3);
    EXPECT_EQ(tc.trace()[0].actors[2], 12);
    EXPECT_EQ(tc.trace()[3].kind, sim::ChoiceKind::GpuChannel);
}

TEST(EventQueueChoiceTest, ChooserPermutesSameTickTies)
{
    // Three same-tick, same-priority events: the uncontrolled queue
    // dispatches in schedule (seq) order; a scripted chooser can
    // realise any permutation, one deviation per site.
    const auto order = [](std::vector<int> script) {
        sim::EventQueue eq;
        mc::TraceChooser tc(std::move(script));
        eq.setChooser(&tc);
        std::vector<int> out;
        for (int i = 0; i < 3; ++i)
            eq.schedule(100, [&out, i] { out.push_back(i); });
        eq.runAll(100);
        eq.setChooser(nullptr);
        return out;
    };
    EXPECT_EQ(order({}), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(order({2}), (std::vector<int>{2, 0, 1}));
    EXPECT_EQ(order({1, 1}), (std::vector<int>{1, 2, 0}));
}
