/**
 * @file
 * Unit tests for the empirical CDF container.
 */

#include "prof/cdf.hh"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace jetsim::prof {
namespace {

Cdf
ramp(int n)
{
    Cdf c;
    for (int i = 1; i <= n; ++i)
        c.add(i);
    return c;
}

TEST(Cdf, EmptyBehaviour)
{
    Cdf c;
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(c.count(), 0u);
    EXPECT_DOUBLE_EQ(c.mean(), 0.0);
    EXPECT_DOUBLE_EQ(c.fractionBelow(10.0), 0.0);
    EXPECT_TRUE(c.curve().empty());
}

TEST(Cdf, SingleSample)
{
    Cdf c;
    c.add(5.0);
    EXPECT_DOUBLE_EQ(c.median(), 5.0);
    EXPECT_DOUBLE_EQ(c.quantile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(c.quantile(1.0), 5.0);
}

TEST(Cdf, QuantilesOfRamp)
{
    const Cdf c = ramp(101); // 1..101
    EXPECT_DOUBLE_EQ(c.min(), 1.0);
    EXPECT_DOUBLE_EQ(c.max(), 101.0);
    EXPECT_DOUBLE_EQ(c.median(), 51.0);
    EXPECT_DOUBLE_EQ(c.quantile(0.25), 26.0);
}

TEST(Cdf, QuantileInterpolates)
{
    Cdf c;
    c.add(0.0);
    c.add(10.0);
    EXPECT_DOUBLE_EQ(c.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(c.quantile(0.75), 7.5);
}

TEST(Cdf, FractionBelow)
{
    const Cdf c = ramp(10); // 1..10
    EXPECT_DOUBLE_EQ(c.fractionBelow(0.5), 0.0);
    EXPECT_DOUBLE_EQ(c.fractionBelow(5.0), 0.5);
    EXPECT_DOUBLE_EQ(c.fractionBelow(10.0), 1.0);
    EXPECT_DOUBLE_EQ(c.fractionBelow(99.0), 1.0);
}

TEST(Cdf, MeanMatches)
{
    const Cdf c = ramp(100);
    EXPECT_DOUBLE_EQ(c.mean(), 50.5);
}

TEST(Cdf, CurveIsMonotoneAndCoversRange)
{
    const Cdf c = ramp(50);
    const auto curve = c.curve(11);
    ASSERT_EQ(curve.size(), 11u);
    EXPECT_DOUBLE_EQ(curve.front().first, 1.0);
    EXPECT_DOUBLE_EQ(curve.back().first, 50.0);
    EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_LE(curve[i - 1].first, curve[i].first);
        EXPECT_LE(curve[i - 1].second, curve[i].second);
    }
}

TEST(Cdf, UnsortedInsertionOrderIrrelevant)
{
    Cdf a, b;
    for (double x : {3.0, 1.0, 2.0})
        a.add(x);
    for (double x : {1.0, 2.0, 3.0})
        b.add(x);
    EXPECT_DOUBLE_EQ(a.median(), b.median());
    EXPECT_DOUBLE_EQ(a.quantile(0.9), b.quantile(0.9));
}

TEST(Cdf, AddAfterQueryStillWorks)
{
    Cdf c;
    c.add(1.0);
    EXPECT_DOUBLE_EQ(c.median(), 1.0);
    c.add(3.0);
    EXPECT_DOUBLE_EQ(c.median(), 2.0);
}

TEST(Cdf, CopyIsIndependent)
{
    Cdf a = ramp(10);
    Cdf b = a;
    b.add(1000.0);
    EXPECT_EQ(a.count(), 10u);
    EXPECT_EQ(b.count(), 11u);
}

TEST(Cdf, SelectionQuantileEqualsSortedQuantileBitForBit)
{
    // The rank q * (n - 1) is an integer, so the upper order
    // statistic has weight 0, at n = 3 and 101 for q = 0.5 and at
    // n = 101 for q = 0.99; it is not at n = 20046.
    EXPECT_EQ(0.99 * 100.0, 99.0);
    EXPECT_NE(0.99 * 20045.0, std::floor(0.99 * 20045.0));

    sim::Rng rng(41);
    for (const std::size_t n : {1, 2, 3, 101, 20046}) {
        // Distinct latencies in ticks and duplicates of four values,
        // both in random order, and all equal.
        std::vector<double> distinct, dups, equal(n, 4.25e6);
        for (std::size_t i = 0; i < n; ++i) {
            distinct.push_back(1e6 * (1.0 + rng.uniform()));
            dups.push_back(
                1.5e6 * static_cast<double>(rng.uniformInt(1, 4)));
        }
        for (const auto *xs : {&distinct, &dups, &equal})
            for (const double q : {0.0, 0.5, 0.99, 1.0}) {
                Cdf c;
                for (const double x : *xs)
                    c.add(x);
                std::vector<double> copy = *xs;
                EXPECT_EQ(
                    std::bit_cast<std::uint64_t>(
                        selectQuantile(copy, q)),
                    std::bit_cast<std::uint64_t>(c.quantile(q)))
                    << "n=" << n << " q=" << q;
            }
    }
}

} // namespace
} // namespace jetsim::prof
