#include "sim/event_pool.hh"

#include "sim/logging.hh"

namespace jetsim::sim {

EventPool::~EventPool()
{
    // The owning queue frees every allocated slot before releasing
    // its pool reference; a pool dying with live slots would leak the
    // callbacks' captured state.
    JETSIM_ASSERT(allocatedCount() == 0);
#ifdef JETSIM_POOL_ASAN
    for (auto &slab : slabs_)
        for (auto &e : slab->events)
            unpoisonCb(e);
#endif
}

JETSIM_COLD_OK("slab growth: geometric, O(log n) calls over a queue's life, startup-dominated")
void
EventPool::grow()
{
    // Geometric: double the slab count each time so a deep queue pays
    // O(log n) grow calls (and meta_ reallocation copies), not O(n).
    const std::size_t add = slabs_.empty() ? 1 : slabs_.size();
    meta_.reserve((slabs_.size() + add) * kSlabEvents);
    for (std::size_t s = 0; s < add; ++s) {
        // Default-init (not make_unique's value-init): slab memory is
        // deliberately left untouched until a callback lands in a
        // slot.
        slabs_.emplace_back(new Slab);
        meta_.resize(meta_.size() + kSlabEvents);
#ifdef JETSIM_POOL_ASAN
        for (auto &e : slabs_.back()->events)
            poisonCb(e);
#endif
    }
}

void
EventPool::cancel(Index idx, std::uint32_t gen)
{
    if (!isPending(idx, gen))
        return;
    meta_[idx].cancelled = true;
    --live_;
    ++cancels_;
}

} // namespace jetsim::sim
