/**
 * @file
 * EventPool: slab/freelist storage for EventQueue events.
 *
 * Callbacks live in fixed-size slabs (stable addresses — callbacks
 * may schedule new events, growing the pool, while an event reference
 * is held). Freed slots are recycled through a LIFO freelist. A slot
 * is exactly one 64-byte cache line holding only the callback, so
 * growing the pool never touches slab memory — a slot's line is first
 * written when a callback actually lands in it. There is no per-slot
 * metadata: every allocated slot has exactly one heap entry in its
 * queue until it dispatches, and nothing else names it. The ordering
 * keys (when, priority, seq) travel inside the queue's heap entries,
 * so heap comparisons never touch the slabs.
 *
 * Under AddressSanitizer the callback storage of freed slots is
 * poisoned, so a use-after-free through a dangling event reference
 * trips ASan rather than reading recycled bytes.
 */

#ifndef JETSIM_SIM_EVENT_POOL_HH
#define JETSIM_SIM_EVENT_POOL_HH

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "core/hot_annotations.hh"
#include "sim/inline_fn.hh"
#include "sim/types.hh"

#if defined(__SANITIZE_ADDRESS__)
#define JETSIM_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define JETSIM_POOL_ASAN 1
#endif
#endif

#ifdef JETSIM_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace jetsim::sim {

/** Slab allocator for pending events' callbacks. */
class EventPool
{
  public:
    using Index = std::uint32_t;
    /** Events per slab (power of two: index maths stays shifts). */
    static constexpr std::uint32_t kSlabEvents = 256;

    /** One slot's callback storage; exactly one cache line. */
    struct alignas(64) Event
    {
        /** Manually managed: an InlineFn lives here only while the
         * slot is allocated (poisoned under ASan while free). */
        alignas(InlineFn) unsigned char cb_storage[sizeof(InlineFn)];

        InlineFn &
        cb()
        {
            return *std::launder(
                reinterpret_cast<InlineFn *>(cb_storage));
        }
    };

    EventPool() = default;
    EventPool(const EventPool &) = delete;
    EventPool &operator=(const EventPool &) = delete;
    ~EventPool();

    /** Take a slot and move @p cb into it. Never reuses a live slot. */
    Index
    alloc(InlineFn &&cb)
    {
        Index idx;
        if (!free_.empty()) {
            // Recycled slots first (LIFO: recently-hot lines).
            idx = free_.back();
            free_.pop_back();
        } else {
            // Never-used slots are handed out by bump pointer, so
            // growing never prefills a freelist.
            if (bump_ >= capacity())
                grow();
            idx = bump_++;
        }
        Event &e = at(idx);
        unpoisonCb(e);
        ::new (static_cast<void *>(e.cb_storage))
            InlineFn(std::move(cb));
        return idx;
    }

    /**
     * Destroy slot @p idx's callback and relist the slot. @p e is
     * at(@p idx), already resolved by the caller, so dispatch chases
     * the slab pointer once, not twice.
     */
    void
    free(Index idx, Event &e)
    {
        e.cb().~InlineFn();
        poisonCb(e);
        JETSIM_COLD_OK("amortized: the freelist holds at most the slots handed out so far, so it stops growing at the queue's high-water depth")
        free_.push_back(idx);
    }

    /** Pull the slot's line toward the core before it's needed. */
    void prefetch(Index idx) { __builtin_prefetch(&at(idx)); }

    Event &
    at(Index idx)
    {
        return slabs_[idx / kSlabEvents]->events[idx % kSlabEvents];
    }

    /** Slots currently allocated (queued or dispatching). */
    std::uint64_t
    allocatedCount() const
    {
        return bump_ - free_.size();
    }

    std::size_t slabCount() const { return slabs_.size(); }

    std::size_t
    capacity() const
    {
        return slabs_.size() * kSlabEvents;
    }

  private:
    struct Slab
    {
        Event events[kSlabEvents];
    };

    /** Cold path of alloc(): add slabs past the bump pointer. */
    void grow();

    static void
    poisonCb(Event &e)
    {
#ifdef JETSIM_POOL_ASAN
        ASAN_POISON_MEMORY_REGION(e.cb_storage, sizeof(e.cb_storage));
#else
        (void)e;
#endif
    }

    static void
    unpoisonCb(Event &e)
    {
#ifdef JETSIM_POOL_ASAN
        ASAN_UNPOISON_MEMORY_REGION(e.cb_storage,
                                    sizeof(e.cb_storage));
#else
        (void)e;
#endif
    }

    std::vector<std::unique_ptr<Slab>> slabs_;
    /** Recycled slots only; never-used slots live past bump_. */
    std::vector<Index> free_;
    /** First never-used slot index (== used range's end). */
    Index bump_ = 0;
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_EVENT_POOL_HH
