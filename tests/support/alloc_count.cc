#include "support/alloc_count.hh"

#include <atomic>
#include <cstdlib>
#include <new>

// Global operator new/delete replacements (whole test binary).
//
// GCC pairs the replacement operator new with the std::free in the
// replacement delete and warns; both sides are malloc-based, so the
// pairing is consistent by construction.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
// Atomics: flipped by the test thread, observed from operator new on
// any thread the allocator runs on (jetrace: atomic, hence exempt
// from the guarded/confined requirement).
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void
countOne()
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
}
} // namespace

namespace jetsim::testing {

AllocCount::AllocCount()
{
    g_alloc_count.store(0);
    g_count_allocs.store(true);
}

AllocCount::~AllocCount() { g_count_allocs.store(false); }

std::uint64_t
AllocCount::count() const
{
    return g_alloc_count.load();
}

} // namespace jetsim::testing

void *
operator new(std::size_t n)
{
    countOne();
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    countOne();
    const auto a = static_cast<std::size_t>(al);
    // aligned_alloc wants a nonzero multiple of the alignment.
    const std::size_t size = n ? (n + a - 1) / a * a : a;
    if (void *p = std::aligned_alloc(a, size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
