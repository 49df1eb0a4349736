/**
 * @file
 * JetSan determinism invariant: running the same seeded experiment
 * twice must reproduce every output bit (same digest); a different
 * seed must perturb the jittered timeline (different digest). This
 * is the in-suite version of the tools/simcheck replay harness.
 */

#include <gtest/gtest.h>

#include "check/reporter.hh"
#include "core/digest.hh"
#include "core/profiler.hh"

namespace jetsim {
namespace {

core::ExperimentSpec
smallSpec(std::uint64_t seed)
{
    core::ExperimentSpec spec;
    spec.device = "orin-nano";
    spec.model = "resnet50";
    spec.precision = soc::Precision::Fp16;
    spec.batch = 1;
    spec.processes = 2;
    spec.phase = core::Phase::Light;
    spec.warmup = sim::msec(100);
    spec.duration = sim::msec(300);
    spec.seed = seed;
    return spec;
}

TEST(Determinism, SameSeedBitIdenticalDigest)
{
    check::ScopedCapture cap;
    const auto a = core::runExperiment(smallSpec(7));
    const auto b = core::runExperiment(smallSpec(7));

    EXPECT_TRUE(a.all_deployed);
    EXPECT_GT(a.total_throughput, 0.0);
    EXPECT_EQ(core::resultDigest(a), core::resultDigest(b));
    EXPECT_EQ(cap.total(), 0u); // the clean suite reports nothing
}

TEST(Determinism, DifferentSeedDifferentDigest)
{
    check::ScopedCapture cap;
    const auto a = core::runExperiment(smallSpec(7));
    const auto b = core::runExperiment(smallSpec(8));
    EXPECT_NE(core::resultDigest(a), core::resultDigest(b));
    EXPECT_EQ(cap.total(), 0u);
}

TEST(Determinism, DeepPhaseIsAlsoReproducible)
{
    // Phase 2 adds the Nsight-style tracer (counter CDFs, kernel
    // spans) — the digest covers those too.
    check::ScopedCapture cap;
    auto spec = smallSpec(21);
    spec.phase = core::Phase::Deep;
    const auto a = core::runExperiment(spec);
    const auto b = core::runExperiment(spec);

    EXPECT_GT(a.kernels, 0u);
    EXPECT_EQ(core::resultDigest(a), core::resultDigest(b));
    EXPECT_EQ(cap.total(), 0u);
}

TEST(Determinism, DigestIsRepeatableOnOneResult)
{
    // resultDigest folds each counter CDF's mean, then its quantiles,
    // which sort the samples in place. A second digest of the same
    // result, or one taken after a quantile query, must not see a
    // differently-ordered sum.
    auto spec = smallSpec(1);
    spec.precision = soc::Precision::Int8;
    spec.processes = 8;
    spec.phase = core::Phase::Deep;
    const auto r = core::runExperiment(spec);
    ASSERT_GT(r.sm_active.count(), 1u);
    const auto first = core::resultDigest(r);
    EXPECT_EQ(core::resultDigest(r), first);

    const auto queried = core::runExperiment(spec);
    for (const auto *c :
         {&queried.sm_active, &queried.issue_slot, &queried.tc_util})
        c->quantile(0.5);
    EXPECT_EQ(core::resultDigest(queried), first);
}

TEST(Determinism, DigestCoversPerProcessMetrics)
{
    const auto a = core::runExperiment(smallSpec(7));
    auto b = a;
    ASSERT_FALSE(b.procs.empty());
    b.procs.back().throughput += 1e-9;
    EXPECT_NE(core::resultDigest(a), core::resultDigest(b));
}

} // namespace
} // namespace jetsim
