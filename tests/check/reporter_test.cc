/**
 * @file
 * Unit tests for the JetSan reporter itself: modes, counters,
 * bounded history, and the scoped-capture helper the injection
 * tests rely on.
 */

#include <gtest/gtest.h>

#include "check/check.hh"
#include "check/digest.hh"
#include "check/reporter.hh"

namespace jetsim::check {
namespace {

TEST(Reporter, RecordsSeverityComponentAndTime)
{
    ScopedCapture cap;
    Reporter::instance().report(Severity::Error, Invariant::Causality,
                                "test.component", 1234,
                                "value was %d", 42);

    ASSERT_EQ(cap.total(), 1u);
    const Violation &v = cap.violations().front();
    EXPECT_EQ(v.severity, Severity::Error);
    EXPECT_EQ(v.invariant, Invariant::Causality);
    EXPECT_EQ(v.component, "test.component");
    EXPECT_EQ(v.sim_time, 1234);
    EXPECT_EQ(v.message, "value was 42");
    EXPECT_NE(v.str().find("error"), std::string::npos);
    EXPECT_NE(v.str().find("causality"), std::string::npos);
}

TEST(Reporter, CountsPerInvariantClass)
{
    ScopedCapture cap;
    Reporter::instance().report(Severity::Warning,
                                Invariant::MemoryAccounting, "t",
                                kTimeUnknown, "a");
    Reporter::instance().report(Severity::Error,
                                Invariant::MemoryAccounting, "t",
                                kTimeUnknown, "b");
    Reporter::instance().report(Severity::Error,
                                Invariant::Plausibility, "t",
                                kTimeUnknown, "c");

    EXPECT_EQ(cap.total(), 3u);
    EXPECT_EQ(cap.count(Invariant::MemoryAccounting), 2u);
    EXPECT_EQ(cap.count(Invariant::Plausibility), 1u);
    EXPECT_EQ(cap.count(Invariant::Causality), 0u);
}

TEST(Reporter, CheckMacroOnlyFiresOnFailure)
{
    ScopedCapture cap;
    JETSIM_CHECK(1 + 1 == 2, Severity::Error, Invariant::Plausibility,
                 "test", kTimeUnknown, "never fires");
    EXPECT_EQ(cap.total(), 0u);
    JETSIM_CHECK(1 + 1 == 3, Severity::Error, Invariant::Plausibility,
                 "test", kTimeUnknown, "always fires");
    EXPECT_EQ(cap.total(), 1u);
}

TEST(Reporter, ScopedCaptureRestoresModeAndClears)
{
    const auto outer = Reporter::instance().mode();
    {
        ScopedCapture cap;
        EXPECT_EQ(Reporter::instance().mode(),
                  Reporter::Mode::Count);
        Reporter::instance().report(Severity::Error,
                                    Invariant::Determinism, "t",
                                    kTimeUnknown, "inside");
        EXPECT_EQ(cap.total(), 1u);
    }
    EXPECT_EQ(Reporter::instance().mode(), outer);
    EXPECT_EQ(Reporter::instance().total(), 0u);
}

TEST(Reporter, HistoryIsBoundedButCountingIsNot)
{
    ScopedCapture cap;
    for (int i = 0; i < 200; ++i)
        Reporter::instance().report(Severity::Warning,
                                    Invariant::StreamHazard, "t",
                                    kTimeUnknown, "%d", i);
    EXPECT_EQ(cap.total(), 200u);
    EXPECT_LE(cap.violations().size(), 64u);
}

TEST(Digest, OrderAndValueSensitive)
{
    Digest a, b, c;
    a.add(std::uint64_t{1}).add(std::uint64_t{2});
    b.add(std::uint64_t{2}).add(std::uint64_t{1});
    c.add(std::uint64_t{1}).add(std::uint64_t{2});
    EXPECT_NE(a.value(), b.value());
    EXPECT_EQ(a.value(), c.value());
}

TEST(Digest, DoublesHashByBitPattern)
{
    Digest a, b;
    a.add(0.1);
    b.add(0.1 + 1e-18); // same double after rounding
    EXPECT_EQ(a.value(), b.value());

    Digest c, d;
    c.add(1.0);
    d.add(1.0 + 1e-15); // genuinely different bits
    EXPECT_NE(c.value(), d.value());
}

TEST(Digest, StringsIncludeLength)
{
    Digest a, b;
    a.add(std::string_view("ab")).add(std::string_view("c"));
    b.add(std::string_view("a")).add(std::string_view("bc"));
    EXPECT_NE(a.value(), b.value());
}

} // namespace
} // namespace jetsim::check
