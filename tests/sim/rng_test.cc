/**
 * @file
 * Unit and statistical tests for the deterministic RNG.
 */

#include "sim/rng.hh"

#include <gtest/gtest.h>

#include <cmath>

namespace jetsim::sim {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(3.0, 9.0);
        EXPECT_GE(u, 3.0);
        EXPECT_LT(u, 9.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    Rng r(11);
    bool lo = false, hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.uniformInt(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        lo |= v == 2;
        hi |= v == 5;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, NormalHasExpectedMoments)
{
    Rng r(42);
    double sum = 0, sq = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = r.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, LognormalMatchesTargetMean)
{
    Rng r(42);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.lognormal(Lognormal(6.0, 0.35));
    EXPECT_NEAR(sum / n, 6.0, 0.1);
}

TEST(Rng, LognormalZeroCvIsDeterministic)
{
    Rng r(1);
    EXPECT_DOUBLE_EQ(r.lognormal(Lognormal(5.0, 0.0)), 5.0);
}

TEST(Rng, LognormalIsPositive)
{
    Rng r(3);
    const Lognormal d(10.0, 1.0);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GT(r.lognormal(d), 0.0);
}

/** The per-draw lognormal expression the simulator used before
 * distributions were precomputed (sim::Lognormal); its draws are the
 * reference every golden digest was recorded with. */
double
referenceLognormal(Rng &rng, double mean, double cv)
{
    if (cv == 0.0)
        return mean;
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::exp(mu + std::sqrt(sigma2) * rng.normal());
}

double
referenceLognormalBounded(Rng &rng, double mean, double cv)
{
    const double v = referenceLognormal(rng, mean, cv);
    const double lo = mean / kLognormalEnvelope;
    const double hi = mean * kLognormalEnvelope;
    return v < lo ? lo : (v > hi ? hi : v);
}

TEST(Rng, PrecomputedLognormalIsBitIdenticalToPerDrawParameters)
{
    // The three distributions the run phase draws from: kernel jitter,
    // launch-API cost (whose mean moves when a profiler attaches) and
    // host-side prep; plus cv = 0.
    struct Case
    {
        double mean, cv;
    };
    const Case cases[] = {{1.0, 0.05}, {6000.0, 0.35}, {450000.0, 0.3},
                          {3.5, 0.0}};
    for (const Case &c : cases) {
        Rng a(77), b(77);
        const Lognormal d(c.mean, c.cv);
        for (int i = 0; i < 2000; ++i) {
            ASSERT_EQ(a.lognormal(d), referenceLognormal(b, c.mean, c.cv))
                << "mean " << c.mean << " cv " << c.cv << " draw " << i;
            ASSERT_EQ(a.lognormalBounded(d),
                      referenceLognormalBounded(b, c.mean, c.cv));
        }
        EXPECT_EQ(a.next(), b.next()); // same RNG position
    }
}

TEST(Rng, CachedLognormalFollowsAMeanThatChangesMidStream)
{
    // The launch-cost cache: rebuild the distribution whenever the
    // mean moves (a profiler attaching or detaching mid-run).
    Rng a(5), b(5);
    Lognormal cached(6000.0, 0.35);
    for (int i = 0; i < 3000; ++i) {
        const double factor = (i / 500) % 2 ? 1.7 : 1.0;
        const double mean = 6000.0 * factor;
        if (mean != cached.mean())
            cached = Lognormal(mean, 0.35);
        ASSERT_EQ(a.lognormalBounded(cached),
                  referenceLognormalBounded(b, mean, 0.35))
            << "draw " << i;
    }
}

TEST(Rng, ForkedChildrenAreIndependentOfLabel)
{
    Rng parent1(5), parent2(5);
    Rng a = parent1.fork("gpu");
    Rng b = parent2.fork("cpu");
    // Different labels from identically-seeded parents diverge.
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic)
{
    Rng p1(5), p2(5);
    Rng a = p1.fork("x");
    Rng b = p2.fork("x");
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, HashLabelIsStable)
{
    EXPECT_EQ(hashLabel("abc"), hashLabel("abc"));
    EXPECT_NE(hashLabel("abc"), hashLabel("abd"));
    EXPECT_NE(hashLabel(""), hashLabel("a"));
}

} // namespace
} // namespace jetsim::sim
