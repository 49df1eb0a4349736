/**
 * @file
 * jetmc coverage of hierarchical two-hop dispatch (ISSUE 9): the
 * root -> sub -> device model explored over the complete bounded
 * merge-schedule space (deadlock freedom + per-device arrival digest
 * invariance proved), the racy self-test variant (cross-shard arrival
 * order must be caught as schedule-dependent), and the tie between
 * the explored merge space and the production per-shard clock loop
 * at several shard and thread counts.
 */

#include "mc/hier_model.hh"

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

TEST(HierMc, TwoHopScheduleSpaceProvedCleanAndDeadlockFree)
{
    mc::HierDispatchModel m(2);
    const auto rep = mc::explore(m, search());
    EXPECT_TRUE(rep.proved())
        << "deadlock=" << rep.deadlock
        << " digest_mismatch=" << rep.digest_mismatch
        << " violations=" << rep.violation_runs
        << " budget_hit=" << rep.run_budget_hit;
    // Devices on distinct shards share hop ticks, so merge
    // arbitration is live: the proof must not be vacuous.
    EXPECT_GT(rep.runs, 1u);
    EXPECT_GT(rep.max_trace_len, 0);
}

TEST(HierMc, RacyVariantIsCaughtAsDigestMismatch)
{
    // The broken model folds cross-shard arrival order into its
    // digest — exactly what merge arbitration varies across the
    // two device shards. The harness must see it.
    mc::HierDispatchModel m(2, /*racy=*/true);
    auto cfg = search();
    cfg.stop_on_failure = true;
    const auto rep = mc::explore(m, cfg);
    EXPECT_TRUE(rep.digest_mismatch);
    EXPECT_FALSE(rep.ce_script.empty());
    EXPECT_EQ(rep.ce_what, "digest-mismatch");
}

TEST(HierMc, MergeScheduleMatchesEpochAndSerialPaths)
{
    // The digest the explorer branches around equals the digest of
    // every real scheduling path: fully serial (shards=1), serial
    // merge, and the per-shard clock loop on one thread and in
    // parallel, at two and three shards.
    mc::HierDispatchModel m(2);
    const auto explored = mc::explore(m, search());

    sim::ShardedEngine::Options serial;
    serial.shards = 1;
    serial.threads = 1;
    serial.lookahead = 0;
    const auto flat = m.runWith(serial, nullptr);
    EXPECT_EQ(flat.digest, explored.digest);
    EXPECT_FALSE(flat.deadlock) << flat.detail;

    sim::ShardedEngine::Options merge;
    merge.shards = 3;
    merge.threads = 1;
    merge.lookahead = 0;
    const auto merged = m.runWith(merge, nullptr);
    EXPECT_EQ(merged.digest, explored.digest);

    for (const int shards : {2, 3})
        for (const int threads : {1, 2, 3}) {
            sim::ShardedEngine::Options clocks;
            clocks.shards = shards;
            clocks.threads = threads;
            clocks.lookahead = 1;
            const auto got = m.runWith(clocks, nullptr);
            EXPECT_EQ(got.digest, explored.digest)
                << "shards=" << shards << " threads=" << threads;
            EXPECT_FALSE(got.deadlock) << got.detail;
        }
}

TEST(HierMc, ReplayedCounterexampleReproduces)
{
    mc::HierDispatchModel m(2, /*racy=*/true);
    const auto rep = mc::explore(m, search());
    ASSERT_TRUE(rep.digest_mismatch);
    const auto again = m.run(rep.ce_script);
    EXPECT_NE(again.digest, rep.digest);
}
