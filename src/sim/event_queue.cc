#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace jetsim::sim {

EventQueue::EventQueue()
{
    // One slab's worth up front: a fresh queue reaches steady state
    // without a cascade of doubling reallocations.
    heap_keys_.reserve(EventPool::kSlabEvents);
    heap_pay_.reserve(EventPool::kSlabEvents);
}

EventQueue::~EventQueue()
{
    // Free every queued slot (destroying the callbacks' captured
    // state). Armed timers are skipped untouched: their owners may
    // already be gone.
    for (const Payload p : heap_pay_)
        if (!isTimer(p))
            pool_.free(slotOf(p), pool_.at(slotOf(p)));
}

EventQueue::Stats
EventQueue::stats() const
{
    checkPlausible();
    Stats s;
    s.pending = pending();
    s.peak_pending = peak_pending_;
    s.executed = executed_;
    s.pool_slabs = pool_.slabCount();
    s.pool_capacity = pool_.capacity();
    s.heap_capacity = heap_keys_.capacity();
    s.sbo_misses = sbo_misses_;
    return s;
}

void
EventQueue::checkPlausible() const
{
    JETSIM_CHECK(pool_.allocatedCount() <= pool_.capacity(),
                 check::Severity::Error,
                 check::Invariant::Plausibility, detail::kEqComponent,
                 now_, "allocated slots (%llu) exceed pool capacity (%zu)",
                 static_cast<unsigned long long>(
                     pool_.allocatedCount()),
                 pool_.capacity());
    JETSIM_CHECK(pending() <= peak_pending_,
                 check::Severity::Error,
                 check::Invariant::Plausibility, detail::kEqComponent,
                 now_,
                 "pending (%llu) above recorded high-water mark (%llu)",
                 static_cast<unsigned long long>(pending()),
                 static_cast<unsigned long long>(peak_pending_));
}

// Boundary, not hot: a Chooser is only installed under jetmc, whose
// harness (and whatever its choose() does) is audited by the model
// checker itself, never in steady-state serving.
JETSIM_HOT_BOUNDARY bool
EventQueue::runOneControlled()
{
    // Collect every entry tied with the top on the (when,
    // priority) prefix — the seq component is exactly the insertion
    // order a controlled scheduler is allowed to permute; an armed
    // timer is one alternative like any event. Capped at
    // kMaxChoiceAlts: deeper ties keep their relative order and get
    // re-offered at the next pop, so every permutation is still
    // reachable through successive choices.
    HeapKey cand_key[kMaxChoiceAlts];
    Payload cand[kMaxChoiceAlts];
    std::int64_t actors[kMaxChoiceAlts];
    int n = 0;
    while (n < kMaxChoiceAlts && !heap_keys_.empty()) {
        const HeapKey key = heap_keys_.front();
        if (n > 0 &&
            (key & ~HeapKey(kSeqMask)) !=
                (cand_key[0] & ~HeapKey(kSeqMask)))
            break;
        cand_key[n] = key;
        cand[n] = heap_pay_.front();
        actors[n] = kActorUnknown;
        heapRemove(0);
        ++n;
    }
    if (n == 0)
        return false;
    int pick = 0;
    if (n > 1)
        pick = chooser_->choose(ChoiceKind::EventTie, actors, n);
    JETSIM_ASSERT(pick >= 0 && pick < n);
    // Re-queue the rest with their original keys: relative order among
    // them (and against everything still queued) is unchanged.
    for (int i = 0; i < n; ++i)
        if (i != pick)
            heapPush(cand_key[i], cand[i]);
    dispatch(cand_key[pick], cand[pick]);
    return true;
}

} // namespace jetsim::sim
