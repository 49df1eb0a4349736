/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include "sim/stats.hh"

#include <gtest/gtest.h>

namespace jetsim::sim {
namespace {

TEST(Accumulator, EmptyIsZero)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Accumulator, TracksMoments)
{
    Accumulator a;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        a.sample(x);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(Accumulator, ResetClears)
{
    Accumulator a;
    a.sample(1.0);
    a.sample(2.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Accumulator, HandlesNegativeValues)
{
    Accumulator a;
    a.sample(-5.0);
    a.sample(5.0);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), -5.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(TimeWeighted, ConstantSignalAverage)
{
    TimeWeighted tw(0, 2.0);
    EXPECT_DOUBLE_EQ(tw.average(100), 2.0);
    EXPECT_DOUBLE_EQ(tw.integral(100), 200.0);
}

TEST(TimeWeighted, StepSignal)
{
    TimeWeighted tw(0, 0.0);
    tw.set(50, 1.0); // 0 for [0,50), 1 for [50,100)
    EXPECT_DOUBLE_EQ(tw.average(100), 0.5);
    EXPECT_DOUBLE_EQ(tw.integral(100), 50.0);
}

TEST(TimeWeighted, MultipleSteps)
{
    TimeWeighted tw(0, 1.0);
    tw.set(10, 3.0);
    tw.set(20, 0.0);
    // 1*10 + 3*10 + 0*10 = 40 over 30 ticks.
    EXPECT_DOUBLE_EQ(tw.integral(30), 40.0);
    EXPECT_NEAR(tw.average(30), 40.0 / 30.0, 1e-12);
}

TEST(TimeWeighted, ZeroSpanAverageIsLevel)
{
    TimeWeighted tw(5, 7.0);
    EXPECT_DOUBLE_EQ(tw.average(5), 7.0);
}

TEST(TimeWeighted, RedundantSetKeepsIntegral)
{
    TimeWeighted tw(0, 1.0);
    tw.set(10, 1.0);
    tw.set(20, 1.0);
    EXPECT_DOUBLE_EQ(tw.integral(30), 30.0);
}

} // namespace
} // namespace jetsim::sim
