/**
 * @file
 * Counting replacement of the global operator new, for tests that
 * assert a code path does not allocate. Linking alloc_count.cc into a
 * test binary replaces operator new/delete for the whole binary;
 * counting is off except inside an AllocCount's lifetime, so the
 * other tests in the binary are unaffected.
 */

#ifndef JETSIM_TESTS_SUPPORT_ALLOC_COUNT_HH
#define JETSIM_TESTS_SUPPORT_ALLOC_COUNT_HH

#include <cstdint>

namespace jetsim::testing {

/** Counts operator new calls, on any thread, from construction until
 * destruction. One at a time. */
class AllocCount
{
  public:
    AllocCount();
    ~AllocCount();

    AllocCount(const AllocCount &) = delete;
    AllocCount &operator=(const AllocCount &) = delete;

    /** Allocations counted so far. */
    std::uint64_t count() const;
};

} // namespace jetsim::testing

#endif // JETSIM_TESTS_SUPPORT_ALLOC_COUNT_HH
