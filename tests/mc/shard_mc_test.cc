/**
 * @file
 * jetmc coverage of the sharded event core: the two-shard ping model
 * explored over the complete bounded merge-schedule space (deadlock
 * freedom + digest invariance proved), the racy self-test variant
 * (schedule-dependence must be caught), and the tie between the
 * explored merge space and the production per-shard clock loop.
 */

#include "mc/shard_model.hh"

#include <gtest/gtest.h>

#include "mc/explorer.hh"

using namespace jetsim;

namespace {

mc::ExploreConfig
search()
{
    mc::ExploreConfig cfg;
    cfg.depth = 24;
    cfg.max_runs = 20000;
    return cfg;
}

} // namespace

TEST(ShardMc, MergeScheduleSpaceProvedCleanAndDeadlockFree)
{
    // 2 round trips keep the exhaustive space (dependent() == true,
    // no pruning) complete within the run budget; 3 rounds exceed it.
    mc::ShardPingModel m(2);
    const auto rep = mc::explore(m, search());
    EXPECT_TRUE(rep.proved())
        << "deadlock=" << rep.deadlock
        << " digest_mismatch=" << rep.digest_mismatch
        << " violations=" << rep.violation_runs
        << " budget_hit=" << rep.run_budget_hit;
    // The colliders guarantee real arbitration: more than one
    // schedule must have been explored, or the proof is vacuous.
    EXPECT_GT(rep.runs, 1u);
    EXPECT_GT(rep.max_trace_len, 0);
}

TEST(ShardMc, RacyVariantIsCaughtAsDigestMismatch)
{
    // The broken model folds cross-shard execution order into its
    // digest — exactly what merge arbitration varies. The harness
    // must see it (self-test that ShardMerge choice points are live).
    mc::ShardPingModel m(2, /*racy=*/true);
    auto cfg = search();
    cfg.stop_on_failure = true;
    const auto rep = mc::explore(m, cfg);
    EXPECT_TRUE(rep.digest_mismatch);
    EXPECT_FALSE(rep.ce_script.empty());
    EXPECT_EQ(rep.ce_what, "digest-mismatch");
}

TEST(ShardMc, DefaultMergeScheduleMatchesEpochPath)
{
    // The digest the explorer branches around equals the digest of
    // the real (uncontrolled) scheduling paths — serial merge, and
    // the clock loop on one thread and genuinely in parallel.
    mc::ShardPingModel m(2);
    const auto explored = mc::explore(m, search());

    sim::ShardedEngine::Options serial_merge;
    serial_merge.shards = 2;
    serial_merge.threads = 1;
    serial_merge.lookahead = 0;
    const auto merge = m.runWith(serial_merge, nullptr);
    EXPECT_EQ(merge.digest, explored.digest);
    EXPECT_FALSE(merge.deadlock) << merge.detail;

    sim::ShardedEngine::Options clocks;
    clocks.shards = 2;
    clocks.threads = 1;
    clocks.lookahead = 1;
    const auto serial_clocks = m.runWith(clocks, nullptr);
    EXPECT_EQ(serial_clocks.digest, explored.digest);

    clocks.threads = 2;
    const auto parallel_clocks = m.runWith(clocks, nullptr);
    EXPECT_EQ(parallel_clocks.digest, explored.digest);
    EXPECT_FALSE(parallel_clocks.deadlock) << parallel_clocks.detail;
}

TEST(ShardMc, ReplayedCounterexampleReproduces)
{
    mc::ShardPingModel m(2, /*racy=*/true);
    auto cfg = search();
    const auto rep = mc::explore(m, cfg);
    ASSERT_TRUE(rep.digest_mismatch);
    // Re-running the minimised script must still diverge from the
    // reference digest — counterexamples are deterministic.
    const auto again = m.run(rep.ce_script);
    EXPECT_NE(again.digest, rep.digest);
}
