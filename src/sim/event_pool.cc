#include "sim/event_pool.hh"

#include "sim/logging.hh"

namespace jetsim::sim {

EventPool::~EventPool()
{
    // The owning queue frees every queued slot in its destructor; a
    // pool dying with allocated slots would leak the callbacks'
    // captured state.
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
    // O(log n) grow calls, not O(n).
    const std::size_t add = slabs_.empty() ? 1 : slabs_.size();
    for (std::size_t s = 0; s < add; ++s) {
        // Default-init (not make_unique's value-init): slab memory is
        // deliberately left untouched until a callback lands in a
        // slot.
        slabs_.emplace_back(new Slab);
#ifdef JETSIM_POOL_ASAN
        for (auto &e : slabs_.back()->events)
            poisonCb(e);
#endif
    }
}

} // namespace jetsim::sim
