/**
 * @file
 * Unit and statistical tests for the deterministic RNG.
 */

#include "sim/rng.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace jetsim::sim {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RewindStepsBackPastTheLastValues)
{
    for (const std::uint64_t seed : {0ull, 1ull, 0x5eedull, ~0ull}) {
        Rng r(seed);
        r.next(); // a state past the seeding
        for (const int n : {0, 1, 2, 24, 100}) {
            std::uint64_t drawn[100];
            for (int i = 0; i < n; ++i)
                drawn[i] = r.next();
            r.rewind(n);
            for (int i = 0; i < n; ++i)
                ASSERT_EQ(r.next(), drawn[i])
                    << "seed " << seed << " n " << n << " value " << i;
        }
    }
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

/** Truncation to a Tick: monotone, as lognormalTick requires. */
Tick
truncTick(double v)
{
    return static_cast<Tick>(v);
}

TEST(Rng, NormalHasExpectedMoments)
{
    // The normal variate under the lognormal, read back from the
    // Tick: ln(tick) = mu + sigma * N to within 1e-6 at this mean.
    const double mean = 1e6, cv = 0.5;
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    const Lognormal d(mean, cv);
    Rng r(42);
    double sum = 0, sq = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const Tick t = r.lognormalTick(d, truncTick);
        const double x =
            (std::log(static_cast<double>(t)) - mu) / std::sqrt(sigma2);
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
    const Lognormal d(6.0e6, 0.35);
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.lognormalTick(d, truncTick));
    EXPECT_NEAR(sum / n, 6.0e6, 1e5);
}

TEST(Rng, LognormalZeroCvIsDeterministic)
{
    Rng r(1), untouched(1);
    EXPECT_EQ(r.lognormalTick(Lognormal(5.0, 0.0),
                              [](double v) { return truncTick(v * 1e3); }),
              5000);
    EXPECT_EQ(r.next(), untouched.next()); // nothing drawn
}

TEST(Rng, LognormalIsPositive)
{
    Rng r(3);
    const Lognormal d(10.0, 1.0);
    // Ticks 1 for a positive draw and 0 otherwise: still monotone.
    const auto positive = [](double v) { return Tick{v > 0.0}; };
    for (int i = 0; i < 10000; ++i)
        EXPECT_EQ(r.lognormalTick(d, positive), 1);
}

/** One draw as the simulator evaluated it before lognormalTick and
 * before distributions were precomputed (sim::Lognormal): Box-Muller's
 * first variate from two uniform() draws, then exp(mu + sigma * N)
 * with per-draw parameters. Every golden digest was recorded with
 * its bits. */
double
referenceLognormal(Rng &rng, double mean, double cv)
{
    if (cv == 0.0)
        return mean;
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    double u1 = rng.uniform();
    const double u2 = rng.uniform();
    if (u1 < 1e-300)
        u1 = 1e-300;
    const double normal =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    return std::exp(mu + std::sqrt(sigma2) * normal);
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
    // host-side prep; plus cv = 0. Each is mapped to Ticks at a
    // resolution of 1e-6 of its mean, unbounded and bounded.
    struct Case
    {
        double mean, cv;
    };
    const Case cases[] = {{1.0, 0.05}, {6000.0, 0.35}, {450000.0, 0.3},
                          {3.5, 0.0}};
    for (const Case &c : cases) {
        Rng a(77), b(77);
        const Lognormal d(c.mean, c.cv);
        const double scale = 1e6 / c.mean;
        const auto fine = [scale](double v) { return truncTick(v * scale); };
        const auto bounded = [&d, scale](double v) {
            return truncTick(
                std::clamp(v, d.mean() / kLognormalEnvelope,
                           d.mean() * kLognormalEnvelope) *
                scale);
        };
        for (int i = 0; i < 2000; ++i) {
            ASSERT_EQ(a.lognormalTick(d, fine),
                      fine(referenceLognormal(b, c.mean, c.cv)))
                << "mean " << c.mean << " cv " << c.cv << " draw " << i;
            ASSERT_EQ(a.lognormalTick(d, bounded),
                      fine(referenceLognormalBounded(b, c.mean, c.cv)));
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
        ASSERT_EQ(a.lognormalTick(cached,
                                  [&cached](double v) {
                                      return cached.boundedTick(v);
                                  }),
                  truncTick(referenceLognormalBounded(b, mean, 0.35)))
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
