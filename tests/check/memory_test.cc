/**
 * @file
 * JetSan memory-accounting invariant: planted double-frees,
 * over-capacity reservations, and accounting drift must each be
 * detected with the right severity and component — and clean usage
 * must produce zero reports.
 */

#include <gtest/gtest.h>

#include "check/reporter.hh"
#include "cuda/device_buffer.hh"
#include "soc/unified_memory.hh"

namespace jetsim::soc {

/**
 * The fault-injection seam declared as a friend in UnifiedMemory:
 * corrupts internal accounting so the audit has something real to
 * find. Test-only.
 */
class MemoryFaultInjector
{
  public:
    static void
    corruptUsed(UnifiedMemory &m, sim::Bytes delta)
    {
        m.used_ += delta;
    }
};

namespace {

using check::Invariant;
using check::ScopedCapture;
using check::Severity;

constexpr sim::Bytes kTotal = 1024 * sim::kMiB;
constexpr sim::Bytes kOs = 256 * sim::kMiB;

TEST(MemoryInjection, DoubleFreeIsDetected)
{
    UnifiedMemory mem(kTotal, kOs);
    const auto id = mem.allocate("proc0", 64 * sim::kMiB);
    ASSERT_NE(id, UnifiedMemory::kBadAlloc);
    mem.release(id);

    ScopedCapture cap;
    mem.release(id); // deliberate double free

    ASSERT_EQ(cap.count(Invariant::MemoryAccounting), 1u);
    const auto &v = cap.violations().front();
    EXPECT_EQ(v.severity, Severity::Error);
    EXPECT_EQ(v.component, "soc.memory");
    EXPECT_NE(v.message.find("double free"), std::string::npos);
    EXPECT_EQ(mem.used(), 0u); // accounting untouched by the bad free
}

TEST(MemoryInjection, UseAfterFreeOfUnknownIdIsDetected)
{
    UnifiedMemory mem(kTotal, kOs);
    ScopedCapture cap;
    mem.release(9999); // never allocated
    EXPECT_EQ(cap.count(Invariant::MemoryAccounting), 1u);
}

TEST(MemoryInjection, OsReservationExceedingCapacityIsDetected)
{
    ScopedCapture cap;
    UnifiedMemory mem(kTotal, kTotal + sim::kMiB);

    ASSERT_EQ(cap.count(Invariant::MemoryAccounting), 1u);
    const auto &v = cap.violations().front();
    EXPECT_EQ(v.severity, Severity::Error);
    EXPECT_EQ(v.component, "soc.memory");
    // Sanitised: the pool is unusable but consistent.
    EXPECT_EQ(mem.available(), 0u);
}

TEST(MemoryInjection, AccountingDriftIsDetectedByAudit)
{
    UnifiedMemory mem(kTotal, kOs);
    const auto id = mem.allocate("proc0", 32 * sim::kMiB);
    ASSERT_NE(id, UnifiedMemory::kBadAlloc);
    EXPECT_TRUE(mem.auditInvariants());

    MemoryFaultInjector::corruptUsed(mem, 900 * sim::kMiB);

    ScopedCapture cap;
    EXPECT_FALSE(mem.auditInvariants());
    // Both the sum mismatch and the capacity breach fire.
    EXPECT_EQ(cap.count(Invariant::MemoryAccounting), 2u);
    for (const auto &v : cap.violations())
        EXPECT_EQ(v.severity, Severity::Error);
}

TEST(MemoryClean, HonestExhaustionIsNotAViolation)
{
    // Over-deploying is the paper's legitimate failure mode: the
    // allocator refuses, the caller copes. JetSan must stay quiet.
    ScopedCapture cap;
    UnifiedMemory mem(kTotal, kOs);
    const auto a = mem.allocate("p0", 512 * sim::kMiB);
    EXPECT_NE(a, UnifiedMemory::kBadAlloc);
    const auto b = mem.allocate("p1", 512 * sim::kMiB);
    EXPECT_EQ(b, UnifiedMemory::kBadAlloc);

    mem.release(a);
    EXPECT_TRUE(mem.auditInvariants());
    EXPECT_EQ(cap.total(), 0u);
}

TEST(MemoryClean, DeviceBufferRaiiIsViolationFree)
{
    ScopedCapture cap;
    UnifiedMemory mem(kTotal, kOs);
    {
        auto buf =
            cuda::DeviceBuffer::tryAlloc(mem, "p0", 128 * sim::kMiB);
        ASSERT_TRUE(buf.has_value());
        auto moved = std::move(*buf);
        EXPECT_EQ(mem.used(), 128 * sim::kMiB);
    }
    EXPECT_EQ(mem.used(), 0u);
    EXPECT_TRUE(mem.auditInvariants());
    EXPECT_EQ(cap.total(), 0u);
}

} // namespace
} // namespace jetsim::soc
