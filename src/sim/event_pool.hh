/**
 * @file
 * EventPool: slab/freelist storage for EventQueue events.
 *
 * Callbacks live in fixed-size slabs (stable addresses — callbacks
 * may schedule new events, growing the pool, while an event reference
 * is held). Freed slots are recycled through a LIFO freelist; each
 * free bumps the slot's generation counter so a stale Handle (index,
 * generation) pair becomes inert instead of aliasing the slot's next
 * occupant (the classic ABA hazard of pooled storage).
 *
 * Layout is split hot/cold on purpose:
 *  - per-slot liveness metadata (generation, cancelled) sits in a
 *    dense side array that stays cache-resident for the queue's
 *    cancelled-skip checks and handle validation;
 *  - the 64-byte slab slots hold only the callback, so growing the
 *    pool never touches slab memory — a slot's cache line is first
 *    written when a callback actually lands in it.
 * The ordering keys (when, priority, seq) travel inside the queue's
 * heap entries, so heap comparisons touch neither array.
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

/** Generation-checked slab allocator for pending events. */
class EventPool
{
  public:
    using Index = std::uint32_t;
    static constexpr Index kInvalidIndex = 0xffffffffu;
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

    /** Per-slot liveness record (dense side array, hot). */
    struct Meta
    {
        std::uint32_t gen = 0;
        bool cancelled = false;
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
        meta_[idx].cancelled = false;
        Event &e = at(idx);
        unpoisonCb(e);
        ::new (static_cast<void *>(e.cb_storage))
            InlineFn(std::move(cb));
        ++live_;
        return idx;
    }

    /** Destroy the slot's callback and recycle it (generation bump). */
    void
    free(Index idx)
    {
        Meta &m = meta_[idx];
        if (!m.cancelled)
            --live_; // freed while still pending (queue teardown)
        // A freed slot must never look pending to a stale handle that
        // guessed the new generation; cancelled also guards isPending.
        m.cancelled = true;
        recycle(idx, m, at(idx));
    }

    /**
     * Recycle a slot that markDispatched() already consumed — the
     * dispatch fast path: no liveness bookkeeping left to do. Takes
     * the already-resolved Event so dispatch chases the slab pointer
     * once, not three times.
     */
    void
    recycleDispatched(Index idx, Event &e)
    {
        recycle(idx, meta_[idx], e);
    }

    /** Pull the slot's lines toward the core before they're needed. */
    void
    prefetch(Index idx)
    {
        __builtin_prefetch(&meta_[idx]);
        __builtin_prefetch(&at(idx));
    }

    Event &
    at(Index idx)
    {
        return slabs_[idx / kSlabEvents]->events[idx % kSlabEvents];
    }

    /** Current generation of slot @p idx (for issuing handles). */
    std::uint32_t gen(Index idx) const { return meta_[idx].gen; }

    /** Was slot @p idx cancelled (or already consumed)? */
    bool cancelled(Index idx) const { return meta_[idx].cancelled; }

    /** True while (idx, gen) names a live, uncancelled event. */
    bool
    isPending(Index idx, std::uint32_t gen) const
    {
        if (idx >= meta_.size())
            return false;
        const Meta &m = meta_[idx];
        return m.gen == gen && !m.cancelled;
    }

    /**
     * Cancel (idx, gen) if still pending; inert on generation
     * mismatch (slot reused) or when already cancelled/fired.
     */
    void cancel(Index idx, std::uint32_t gen);

    /** Mark a dispatching event consumed (Handle reports !pending). */
    void
    markDispatched(Index idx)
    {
        meta_[idx].cancelled = true;
        --live_;
    }

    /** Live = allocated and not cancelled (the queue's pending()). */
    std::uint64_t liveCount() const { return live_; }

    /** Slots currently allocated (live + cancelled-but-queued). */
    std::uint64_t
    allocatedCount() const
    {
        return bump_ - free_.size();
    }

    /** Handles cancelled through cancel() over the pool's lifetime. */
    std::uint64_t cancelCount() const { return cancels_; }

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

    /** Cold path of alloc(): add a slab, refill the freelist. */
    void grow();

    /** Destroy the slot's callback, bump its generation, relist it. */
    void
    recycle(Index idx, Meta &m, Event &e)
    {
        e.cb().~InlineFn();
        poisonCb(e);
        ++m.gen;
        JETSIM_COLD_OK("amortized: freelist capacity tracks slab capacity, grown only by grow()")
        free_.push_back(idx);
    }

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
    std::vector<Meta> meta_;
    /** Recycled slots only; never-used slots live past bump_. */
    std::vector<Index> free_;
    /** First never-used slot index (== used range's end). */
    Index bump_ = 0;
    std::uint64_t live_ = 0;
    std::uint64_t cancels_ = 0;
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_EVENT_POOL_HH
