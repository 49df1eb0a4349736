/**
 * @file
 * Sweep pre-screening tests: verdict logic against the SLO, the
 * pruning-effectiveness acceptance case (nano / fcn_resnet50), and
 * the bit-identity guarantee — cells that survive the screen must
 * simulate to exactly the same digest as in an unscreened sweep.
 */

#include "absint/prescreen.hh"

#include <gtest/gtest.h>

#include "core/digest.hh"
#include "core/sweep.hh"

namespace jetsim::absint {
namespace {

core::ExperimentSpec
cell(const std::string &device, const std::string &model, int batch,
     int procs)
{
    core::ExperimentSpec s;
    s.device = device;
    s.model = model;
    s.batch = batch;
    s.processes = procs;
    s.warmup = sim::msec(200);
    s.duration = sim::msec(1000);
    return s;
}

TEST(Prescreen, UnanalyzableSpecStaysUnknown)
{
    auto s = cell("orin-nano", "resnet50", 1, 1);
    s.spatial_sharing = true;
    const auto r = screen(s, {100, 15});
    EXPECT_EQ(r.verdict, Verdict::Unknown);
    EXPECT_NE(r.reason.find("not analyzable"), std::string::npos);
}

TEST(Prescreen, ProvesMemoryInfeasibility)
{
    const auto r = screen(cell("nano", "fcn_resnet50", 1, 4), {});
    EXPECT_EQ(r.verdict, Verdict::ProvedInfeasible);
    EXPECT_NE(r.reason.find("memory"), std::string::npos);
    EXPECT_TRUE(r.bounds.oom);
}

TEST(Prescreen, ProvesLatencyInfeasibility)
{
    // fcn_resnet50 at batch 8: even the run-alone serial GPU time
    // exceeds a 100 ms SLO, no schedule can be faster.
    const auto r =
        screen(cell("nano", "fcn_resnet50", 8, 1), {100, 0});
    EXPECT_EQ(r.verdict, Verdict::ProvedInfeasible);
    EXPECT_NE(r.reason.find("latency"), std::string::npos);
    EXPECT_GT(r.bounds.procs[0].latency_ms.lo, 100.0);
}

TEST(Prescreen, ProvesThroughputInfeasibility)
{
    // No process can average more than the aggregate GPU-serial cap
    // allows; an absurd floor is provably unreachable.
    const auto r =
        screen(cell("orin-nano", "fcn_resnet50", 8, 4), {0, 1e6});
    EXPECT_EQ(r.verdict, Verdict::ProvedInfeasible);
    EXPECT_NE(r.reason.find("throughput"), std::string::npos);
}

TEST(Prescreen, ProvesFeasibilityUnderAGenerousSlo)
{
    const auto r =
        screen(cell("orin-nano", "resnet18", 1, 1), {10000, 0.01});
    EXPECT_EQ(r.verdict, Verdict::ProvedFeasible);
}

TEST(Prescreen, UndecidedCellsStayUnknown)
{
    // A tight-but-reachable SLO sits between the bounds: the screen
    // must defer to simulation rather than guess.
    const auto r =
        screen(cell("orin-nano", "resnet50", 1, 2), {12, 30});
    EXPECT_EQ(r.verdict, Verdict::Unknown);
}

TEST(Prescreen, AcceptanceGridPrunesCells)
{
    // The shipped planner example: nano / fcn_resnet50 against a
    // 100 ms / 15 fps SLO. At least the 4-process column (provable
    // OOM) and the batch-8 rows (provable latency) must go.
    const Slo slo{100, 15};
    int pruned = 0;
    for (int procs : {1, 2, 4, 8})
        for (int batch : {1, 2, 4, 8})
            if (screen(cell("nano", "fcn_resnet50", batch, procs),
                       slo)
                    .verdict == Verdict::ProvedInfeasible)
                ++pruned;
    EXPECT_GE(pruned, 8);
}

TEST(Prescreen, ScreenedSweepIsBitIdenticalOnSurvivors)
{
    // Prune the 4-process column statically (guaranteed OOM) and
    // simulate the rest; every surviving cell must reproduce the
    // unscreened sweep's result bit for bit.
    auto base = cell("nano", "fcn_resnet50", 1, 1);
    const std::vector<int> batches = {1, 2};
    const std::vector<int> procs = {1, 4};

    const auto plain = core::sweepGrid(base, batches, procs);

    const core::CellScreenFn keep =
        [](const core::ExperimentSpec &s) {
            return screen(s, {}).verdict !=
                   Verdict::ProvedInfeasible;
        };
    const auto screened =
        core::sweepGridScreened(base, batches, procs, keep);

    ASSERT_EQ(plain.size(), screened.cells.size());
    EXPECT_EQ(screened.pruned, 2);    // the procs=4 row
    EXPECT_EQ(screened.simulated, 2); // the procs=1 row
    int compared = 0;
    for (std::size_t i = 0; i < plain.size(); ++i) {
        if (!screened.cells[i].has_value())
            continue;
        EXPECT_EQ(core::resultDigest(plain[i]),
                  core::resultDigest(*screened.cells[i]))
            << "cell " << i << " diverged under screening";
        ++compared;
    }
    EXPECT_EQ(compared, screened.simulated);
    // And the pruned cells really were infeasible: the unscreened
    // sweep failed to deploy them.
    for (std::size_t i = 0; i < plain.size(); ++i) {
        if (!screened.cells[i].has_value()) {
            EXPECT_FALSE(plain[i].all_deployed);
        }
    }
}

TEST(Prescreen, NullScreenKeepsEverything)
{
    auto base = cell("orin-nano", "resnet18", 1, 1);
    const auto sweep = core::sweepGridScreened(base, {1, 2}, {1},
                                               core::CellScreenFn{});
    EXPECT_EQ(sweep.pruned, 0);
    EXPECT_EQ(sweep.simulated, 2);
    for (const auto &c : sweep.cells)
        EXPECT_TRUE(c.has_value());
}

} // namespace
} // namespace jetsim::absint
