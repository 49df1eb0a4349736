#include "spans.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

// The replacement operator new is paired with std::free in the
// replacement delete; both sides are malloc-based.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
thread_local std::uint64_t t_allocs = 0;

} // namespace

void *
operator new(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        ++t_allocs;
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
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

namespace jetbench {

void
setAllocCounting(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t
threadAllocs()
{
    return t_allocs;
}

std::uint64_t
totalAllocs()
{
    return g_allocs.load(std::memory_order_relaxed);
}

double
nowUs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

SpanLog::Scope::Scope(SpanLog &log, std::string name)
    : log_(log), index_(log.spans_.size())
{
    Span s;
    s.id = log.next_id_++;
    s.parent = log.current();
    s.name = std::move(name);
    s.thread = log.thread_;
    log.spans_.push_back(std::move(s));
    log.open_.push_back(index_);
    log.open_allocs_.push_back(threadAllocs());
    log.spans_[index_].start_us = nowUs();
}

SpanLog::Scope::~Scope()
{
    Span &s = log_.spans_[index_];
    s.end_us = nowUs();
    s.allocs = threadAllocs() - log_.open_allocs_.back();
    log_.open_.pop_back();
    log_.open_allocs_.pop_back();
}

void
SpanLog::adopt(const SpanLog &other, std::uint32_t parent)
{
    for (Span s : other.spans_) {
        if (s.parent == 0)
            s.parent = parent;
        spans_.push_back(std::move(s));
    }
}

double
SpanLog::totalMs(const std::string &name) const
{
    double ms = 0;
    for (const auto &s : spans_)
        if (s.name == name)
            ms += s.ms();
    return ms;
}

} // namespace jetbench
