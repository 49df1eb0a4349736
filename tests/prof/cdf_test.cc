/**
 * @file
 * Unit tests for the empirical CDF container.
 */

#include "prof/cdf.hh"

#include <gtest/gtest.h>

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

} // namespace
} // namespace jetsim::prof
