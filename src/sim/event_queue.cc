#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace jetsim::sim {

EventQueue::EventQueue()
{
    // Reserved up front: a fresh queue reaches steady state without a
    // cascade of doubling reallocations.
    slots_.reserve(kReserve);
    free_.reserve(kReserve);
    heap_keys_.reserve(kReserve);
    heap_pay_.reserve(kReserve);
}

EventQueue::Stats
EventQueue::stats() const
{
    checkPlausible();
    Stats s;
    s.pending = pending();
    s.peak_pending = peak_pending_;
    s.executed = executed_;
    return s;
}

void
EventQueue::checkPlausible() const
{
    // Every occupied slot has its own heap entry.
    JETSIM_CHECK(slots_.size() - free_.size() <= pending(),
                 check::Severity::Error,
                 check::Invariant::Plausibility, detail::kEqComponent,
                 now_, "occupied slots (%zu) exceed pending (%llu)",
                 slots_.size() - free_.size(),
                 static_cast<unsigned long long>(pending()));
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
