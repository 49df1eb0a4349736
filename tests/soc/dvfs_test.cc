/**
 * @file
 * Tests for the DVFS governor: throttling under the cap, recovery,
 * and the disable switch (ablation A2).
 */

#include "soc/dvfs.hh"

#include <gtest/gtest.h>

#include "sim/event_queue.hh"

namespace jetsim::soc {
namespace {

DeviceSpec
device()
{
    return orinNano();
}

TEST(Dvfs, StartsAtMaxFrequency)
{
    sim::EventQueue eq;
    DvfsGovernor g(device(), eq, [] { return 3.0; });
    EXPECT_DOUBLE_EQ(g.freqFrac(), 1.0);
    EXPECT_EQ(g.level(), device().gpu.dvfs_levels - 1);
}

TEST(Dvfs, ThrottlesWhenPowerExceedsCap)
{
    sim::EventQueue eq;
    DvfsGovernor g(device(), eq, [] { return 9.0; }); // above 7 W cap
    g.start();
    eq.runUntil(sim::msec(200));
    EXPECT_LT(g.freqFrac(), 1.0);
    EXPECT_GT(g.throttleEvents(), 0u);
}

TEST(Dvfs, HoldsMaxWhenUnderCap)
{
    sim::EventQueue eq;
    DvfsGovernor g(device(), eq, [] { return 4.0; });
    g.start();
    eq.runUntil(sim::sec(1));
    EXPECT_DOUBLE_EQ(g.freqFrac(), 1.0);
    EXPECT_EQ(g.throttleEvents(), 0u);
}

TEST(Dvfs, RecoversAfterLoadDrops)
{
    sim::EventQueue eq;
    double power = 9.0;
    DvfsGovernor g(device(), eq, [&] { return power; });
    g.start();
    eq.runUntil(sim::msec(300));
    EXPECT_LT(g.freqFrac(), 1.0);
    power = 3.0;
    eq.runUntil(eq.now() + sim::sec(2));
    EXPECT_DOUBLE_EQ(g.freqFrac(), 1.0);
}

TEST(Dvfs, DisabledGovernorPinsMax)
{
    sim::EventQueue eq;
    DvfsGovernor g(device(), eq, [] { return 20.0; });
    g.setEnabled(false);
    g.start();
    eq.runUntil(sim::sec(1));
    EXPECT_DOUBLE_EQ(g.freqFrac(), 1.0);
}

TEST(Dvfs, DisablingRestoresMaxLevel)
{
    sim::EventQueue eq;
    DvfsGovernor g(device(), eq, [] { return 9.0; });
    g.start();
    eq.runUntil(sim::msec(300));
    ASSERT_LT(g.freqFrac(), 1.0);
    g.setEnabled(false);
    EXPECT_DOUBLE_EQ(g.freqFrac(), 1.0);
}

TEST(Dvfs, TemperatureRisesUnderLoad)
{
    sim::EventQueue eq;
    DvfsGovernor g(device(), eq, [] { return 6.5; });
    g.start();
    const double t0 = g.tempC();
    eq.runUntil(sim::sec(5));
    EXPECT_GT(g.tempC(), t0);
}

TEST(Dvfs, FrequencyNeverLeavesLevelRange)
{
    sim::EventQueue eq;
    DvfsGovernor g(device(), eq, [] { return 50.0; });
    g.start();
    eq.runUntil(sim::sec(3));
    EXPECT_GE(g.level(), 0);
    const auto &gpu = device().gpu;
    EXPECT_GE(g.freqGhz(), gpu.min_freq_ghz - 1e-9);
    EXPECT_LE(g.freqGhz(), gpu.max_freq_ghz + 1e-9);
}

TEST(Dvfs, ThermalThrottleEngagesWhenHot)
{
    // Lower the throttle point so the thermal path triggers within
    // a short simulation (the stock 95 degC point needs minutes of
    // sustained load).
    sim::EventQueue eq;
    DeviceSpec d = device();
    d.power.throttle_temp_c = 37.0; // just above ambient
    DvfsGovernor g(d, eq, [] { return 6.0; }); // under the 7 W cap
    g.start();
    eq.runUntil(sim::sec(30));
    EXPECT_GT(g.tempC(), d.power.throttle_temp_c - 1.0);
    EXPECT_LT(g.freqFrac(), 1.0);
    EXPECT_GT(g.throttleEvents(), 0u);
}

TEST(Dvfs, TemperatureEquilibratesUnderSustainedLoad)
{
    sim::EventQueue eq;
    DvfsGovernor g(device(), eq, [] { return 6.5; });
    g.start();
    eq.runUntil(sim::sec(120));
    const double t1 = g.tempC();
    eq.runUntil(eq.now() + sim::sec(120));
    const double t2 = g.tempC();
    // First-order system: the second interval adds far less heat.
    EXPECT_GT(t1, device().power.ambient_temp_c + 5.0);
    EXPECT_LT(t2 - t1, 0.3 * (t1 - device().power.ambient_temp_c));
}

} // namespace
} // namespace jetsim::soc
