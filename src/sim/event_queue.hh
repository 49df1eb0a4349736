/**
 * @file
 * Discrete-event queue: the heart of the simulator.
 *
 * Events are callbacks scheduled at an absolute Tick. Events at the
 * same tick execute in (priority, insertion-order) order so that
 * component interactions are fully deterministic.
 *
 * The implementation is an intrusive event core built for the
 * per-cell hot path (the sweep loop schedules millions of events per
 * experiment cell):
 *  - a queued callback waits in one slot of a vector the queue owns,
 *    recycled through a LIFO freelist of slot indices — no per-event
 *    heap allocation, no shared_ptr refcounting;
 *  - the ordering keys (when, priority, seq) are packed into one
 *    128-bit integer per heap node, so a heap compare is a single
 *    scalar `<` on a dense array and never touches a slot;
 *  - callbacks are sim::InlineFn, whose captures are bounded at
 *    compile time and never allocate;
 *  - a component's recurring edge (a CPU slice end, a GPU kernel
 *    edge, a sampler tick) is a Timer it owns: the heap entry points
 *    at the timer, so arming one builds no slot or callback, and a
 *    Timer is the only event that can be withdrawn (disarm()), so the
 *    heap holds live entries only;
 *  - a firing timer's entry stays at the heap root while its target
 *    runs (the "hold"), so a target that re-arms its own timer
 *    rewrites the root's key and sifts it down once instead of a pop
 *    followed by a push.
 * Dispatch order — (when, priority, seq) — is bit-identical to the
 * previous shared_ptr implementation; the golden determinism tests
 * and the JetSan monotonic-dispatch invariant are the proof.
 */

#ifndef JETSIM_SIM_EVENT_QUEUE_HH
#define JETSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "check/check.hh"
#include "core/hot_annotations.hh"
#include "sim/choice.hh"
#include "sim/inline_fn.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace jetsim::sim {

namespace detail {

inline constexpr const char *kEqComponent = "sim.event_queue";

} // namespace detail

/**
 * Time-ordered queue of callbacks with deterministic tie-breaking.
 *
 * The queue owns the current simulated time: executing an event
 * advances `now()` to that event's tick. Scheduling into the past is
 * an internal error.
 */
class EventQueue
{
  public:
    using Callback = InlineFn;

    /** Priorities for same-tick ordering; lower runs first. */
    static constexpr int kPriDefault = 0;
    /** Samplers run after the state they observe has settled. */
    static constexpr int kPriSample = 100;

    /** Callback slots and heap entries a new queue reserves. */
    static constexpr std::size_t kReserve = 256;

    /**
     * Sequence-number band split for the sharded engine. Local
     * events draw their insertion-order seq from a counter starting
     * at kMessageSeqLimit; seqs below it are reserved for cross-shard
     * messages (scheduleMessage), whose explicit (source port,
     * counter) packing is independent of delivery timing. The split
     * makes same-(tick,priority) ties between a message and a local
     * event resolve message-first in *every* shard/thread
     * configuration — the keystone of the sharded engine's
     * bit-identical merge (DESIGN.md §4i).
     */
    static constexpr std::uint64_t kMessageSeqLimit = 1ull << 47;

    /**
     * A component-owned event with at most one pending occurrence, a
     * fixed target and a fixed priority. arm() pushes it into the heap
     * under exactly the key schedule() would give an event at the
     * same point — (when, priority, next seq) — so dispatch order,
     * seqs and Chooser tie sets are those of the equivalent
     * schedule() call, but the entry points at the timer itself: no
     * slot or callback is built. Dispatching it counts in
     * executed(), clears armed() and calls @p fire(@p owner); the
     * target may re-arm it. Armed timers count in pending().
     *
     * While the target runs, the spent entry is held at the heap root
     * (runTop()); every view of the queue reads as if it had been
     * popped, and a re-arm of this timer rewrites it in place.
     *
     * disarm() withdraws the pending occurrence. The queue reaches a
     * timer only through its heap entry and never touches one it
     * destroys armed, so a timer may die with its owner before its
     * queue (the contract of a `this` capture); an owner destroyed
     * while the queue still runs must not leave its timer armed, and
     * an owner that disarms must do so while its queue lives. Not
     * movable: the heap entry holds its address.
     */
    class Timer
    {
      public:
        Timer(void (*fire)(void *owner), void *owner,
              int priority = kPriDefault)
            : fire_(fire), owner_(owner), priority_(priority)
        {
            JETSIM_ASSERT(priority >= kPriPackMin &&
                          priority <= kPriPackMax);
        }
        Timer(const Timer &) = delete;
        Timer &operator=(const Timer &) = delete;

        /** True from arm() until the occurrence dispatches or is
         * disarmed. */
        bool armed() const { return armed_; }

      private:
        friend class EventQueue;
        void (*fire_)(void *);
        void *owner_;
        int priority_;
        bool armed_ = false;
    };

    /** Queue depth and dispatch counters (see stats()). */
    struct Stats
    {
        std::uint64_t pending = 0;       ///< events + armed timers
        std::uint64_t peak_pending = 0;  ///< high-water mark of pending
        std::uint64_t executed = 0;      ///< lifetime dispatch count
        std::uint64_t sbo_misses = 0;    ///< always 0 (perfbench reads it)
    };

    EventQueue();
    /** Destroys the queued callbacks; armed timers are not touched,
     * their owners may already be gone. */
    ~EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p cb at absolute tick @p when. */
    void schedule(Tick when, Callback cb, int priority = kPriDefault);

    /** Schedule @p cb at now() + @p delay. */
    void scheduleIn(Tick delay, Callback cb, int priority = kPriDefault);

    /** Arm @p t (not already armed) at absolute tick @p when, with
     * schedule()'s causality check. */
    void arm(Timer &t, Tick when);

    /** Arm @p t at now() + @p delay, checked and saturated as
     * scheduleIn() does. */
    void armIn(Timer &t, Tick delay);

    /**
     * Withdraw @p t's pending occurrence; a no-op when it is not
     * armed. The entry is found by a linear scan of the heap (per-
     * board heaps hold a few dozen entries) and removed, so the heap
     * keeps live entries only. A re-armed timer takes a fresh seq.
     */
    void disarm(Timer &t);

    /**
     * Schedule a cross-shard message with an explicit low-band seq
     * (must be < kMessageSeqLimit). The caller — sim::ShardedEngine —
     * guarantees seqs are unique and that @p when is strictly beyond
     * every tick this queue has already dispatched, so the key total
     * order (and the JetSan monotonic-dispatch invariant) is
     * preserved no matter when the clock protocol physically inserts
     * the message.
     */
    void scheduleMessage(Tick when, Callback cb, int priority,
                         std::uint64_t msg_seq);

    /** The next pending event's dispatch key (peek). */
    struct NextEvent
    {
        Tick when = 0;
        int priority = 0;
        std::uint64_t seq = 0;
    };

    /**
     * Peek the next pending event without executing it.
     * @return false when empty. Used by the sharded engine for
     * horizon computation and the deterministic cross-shard merge.
     */
    bool peekNext(NextEvent &out) const;

    /** True when no pending event or armed timer remains. */
    bool empty() const { return pending() == 0; }

    /** Pending events plus armed timers: the heap's size, less a
     * held root. */
    std::uint64_t
    pending() const
    {
        return heap_keys_.size() - static_cast<std::size_t>(held_);
    }

    /**
     * Execute the single next event, advancing time to it.
     * @return false when the queue was empty.
     */
    bool runOne();

    /**
     * Run every event scheduled at or before @p horizon, then advance
     * time to exactly @p horizon.
     * @return the number of events executed.
     */
    std::uint64_t runUntil(Tick horizon);

    /** Run until the queue drains (or @p max_events executed). */
    std::uint64_t runAll(std::uint64_t max_events = UINT64_MAX);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /** Snapshot of the queue's depth and dispatch counters. */
    Stats stats() const;

    /** @name Controlled scheduling (model checking)
     * Install a Chooser to make the queue's same-(tick,priority) tie
     * breaks — and, through chooser(), the GPU/CPU arbitration sites
     * of every component sharing this queue — explicit branch points.
     * nullptr (the default) keeps the fully deterministic
     * (priority, insertion-order) dispatch; the hot path pays one
     * predicted-not-taken null check.
     * @{ */
    void setChooser(Chooser *c) { chooser_ = c; }
    Chooser *chooser() const { return chooser_; }
    /** @} */

  private:
    /** A queued callback's position in slots_. */
    using Index = std::uint32_t;

    /**
     * The dispatch key (when, priority, seq) packed into one 128-bit
     * integer — when in the top 64 bits, the bias-shifted priority in
     * the next 16, seq in the low 48 — so a heap comparison is a
     * single scalar `<`. seq is unique per event, making the order
     * total: the dispatch sequence is exactly the sorted key order,
     * independent of heap internals. Priorities are clamped (with a
     * JetSan check) to the 16-bit lane; seq wrapping at 2^48 would
     * need ~281 T events through one queue.
     */
    using HeapKey = unsigned __int128;

    static constexpr int kPriPackMin = -32768;
    static constexpr int kPriPackMax = 32767;
    static constexpr std::uint64_t kSeqMask = (1ull << 48) - 1;

    static HeapKey
    makeKey(Tick when, int priority, std::uint64_t seq)
    {
        const auto pri_biased = static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(priority) + 0x8000u) &
            0xffffu;
        return (HeapKey(static_cast<std::uint64_t>(when)) << 64) |
               (pri_biased << 48) | (seq & kSeqMask);
    }

    static Tick
    keyWhen(HeapKey k)
    {
        return static_cast<Tick>(static_cast<std::uint64_t>(k >> 64));
    }

    static int
    keyPriority(HeapKey k)
    {
        const auto biased = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(k) >> 48) & 0xffffu);
        return static_cast<int>(biased) - 0x8000;
    }

    static std::uint64_t
    keySeq(HeapKey k)
    {
        return static_cast<std::uint64_t>(k) & kSeqMask;
    }

    /**
     * A heap entry's payload: a slot index shifted left one bit
     * (even), or an armed Timer's address with the low bit set (odd;
     * Timer is pointer-aligned).
     */
    using Payload = std::uintptr_t;

    static Payload slotPayload(Index idx) { return Payload(idx) << 1; }

    static Payload
    timerPayload(Timer *t)
    {
        return reinterpret_cast<Payload>(t) | 1u;
    }

    static bool isTimer(Payload p) { return (p & 1u) != 0; }
    static Index slotOf(Payload p) { return static_cast<Index>(p >> 1); }

    static Timer *
    timerOf(Payload p)
    {
        return reinterpret_cast<Timer *>(p & ~Payload(1));
    }

    /** Insert (@p key, @p p); a key below a held root drops the root
     * first. */
    void heapPush(HeapKey key, Payload p);

    /** Remove the entry at heap index @p i (0 pops the top). */
    void heapRemove(std::size_t i);

    /** Give the root the larger @p key, keeping its payload, and sift
     * it down: the hold's re-arm. */
    void heapReplaceTop(HeapKey key);

    /** schedule()'s causality check: @p when, or now() if it lies in
     * the past (after reporting it). */
    Tick causal(Tick when) const;

    /** scheduleIn()'s delay check and saturation: now() + @p delay. */
    Tick whenIn(Tick delay) const;

    /** Common schedule body; @p seq is the full packed seq lane. */
    void scheduleKeyed(Tick when, Callback cb, int priority,
                       std::uint64_t seq);

    /**
     * Pop path when a Chooser is installed (cold, defined in the
     * .cc): collects the same-(when,priority) tie set at the top of
     * the heap, lets the chooser pick, re-queues the rest.
     * @return false when the queue was empty.
     */
    bool runOneControlled();

    /**
     * Pop and dispatch the top entry: the uncontrolled pop of runOne()
     * and runUntil(). A timer's entry is held at the root while its
     * target runs and removed after it returns, unless the target
     * re-armed the timer in place or a smaller push dropped it.
     */
    void runTop();

    /** Dispatch the entry (@p key, @p p), already popped or held. */
    void dispatch(HeapKey key, Payload p);

    /** JetSan: verify dispatch order against the previous event. */
    void checkDispatch(HeapKey key);

    /** JetSan plausibility: counters must be mutually consistent. */
    void checkPlausible() const;

    // Queued callbacks, one per slot, and the LIFO freelist of slot
    // indices (recently used slots first). A slot is free exactly
    // when its index is listed here; its InlineFn is then empty.
    std::vector<InlineFn> slots_;
    std::vector<Index> free_;

    // Binary heap as parallel key/payload arrays: sift compares touch
    // only the dense key array (16 B per pending event).
    std::vector<HeapKey> heap_keys_;
    std::vector<Payload> heap_pay_;
    // The root is a dispatching timer's spent entry (runTop): it is
    // not pending, and every other key is larger than its key.
    bool held_ = false;
    Chooser *chooser_ = nullptr;
    Tick now_ = 0;
    // Local insertion-order counter; starts above the message band so
    // cross-shard messages (explicit seqs < kMessageSeqLimit) win
    // same-(tick,priority) ties deterministically. The remaining
    // 2^47 local seqs would still take ~140 T events to exhaust.
    std::uint64_t seq_ = kMessageSeqLimit;
    std::uint64_t executed_ = 0;
    std::uint64_t peak_pending_ = 0;

    // Key of the most recently dispatched event, for the JetSan
    // monotonic-dispatch / same-tick-ordering invariant (checked only
    // once executed_ > 0).
    HeapKey last_key_ = 0;
};

// The schedule/dispatch path is defined in the header on purpose:
// call sites (the engines, the sweep loop) see through the InlineFn
// type erasure and the sift loops, which is worth a large constant
// factor per event. Cold paths (construction, stats, the controlled
// pop) live in event_queue.cc.

static_assert(alignof(EventQueue::Timer) >= 2,
              "a heap payload tags timer addresses in the low bit");

JETSIM_HOT inline void
EventQueue::heapPush(HeapKey key, Payload p)
{
    // A key below the held root (a same-tick event at a lower
    // priority number) would rise above it: the spent root goes first.
    if (held_ && key < heap_keys_.front()) {
        held_ = false;
        heapRemove(0);
    }
    // Hole-based sift-up: parents slide down into the hole and the
    // new entry is written exactly once.
    std::size_t i = heap_keys_.size();
    JETSIM_COLD_OK("amortized: geometric vector growth, reserved up front; grows only past the queue's high-water depth")
    heap_keys_.push_back(key);
    JETSIM_COLD_OK("amortized: grows in lockstep with heap_keys_")
    heap_pay_.push_back(p);
    HeapKey *k = heap_keys_.data();
    Payload *v = heap_pay_.data();
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(key < k[parent]))
            break;
        k[i] = k[parent];
        v[i] = v[parent];
        i = parent;
    }
    k[i] = key;
    v[i] = p;
}

JETSIM_HOT inline void
EventQueue::heapRemove(std::size_t i)
{
    // Bottom-up removal: the hole at i runs to the bottom along the
    // min-child path (one branchless compare per level), then the
    // displaced back element bubbles up from the hole — usually not
    // at all, because the back element is among the largest; from a
    // hole below the top it may rise past i. Fewer compares than a
    // sift-down, and the child select never mispredicts.
    const HeapKey key = heap_keys_.back();
    const Payload p = heap_pay_.back();
    heap_keys_.pop_back();
    heap_pay_.pop_back();
    const std::size_t n = heap_keys_.size();
    if (i == n)
        return; // the removed entry was the back one
    HeapKey *k = heap_keys_.data();
    Payload *v = heap_pay_.data();
    while (true) {
        std::size_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n)
            c += static_cast<std::size_t>(k[c + 1] < k[c]);
        k[i] = k[c];
        v[i] = v[c];
        i = c;
    }
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(key < k[parent]))
            break;
        k[i] = k[parent];
        v[i] = v[parent];
        i = parent;
    }
    k[i] = key;
    v[i] = p;
}

JETSIM_HOT inline void
EventQueue::heapReplaceTop(HeapKey key)
{
    // Top-down sift with an early exit: a re-armed timer is often
    // among the next few due (a GPU kernel's successor, a CPU slice),
    // so it usually stops near the root, where the bottom-up pop's
    // run to the bottom and back would pay the full depth twice.
    const std::size_t n = heap_keys_.size();
    HeapKey *k = heap_keys_.data();
    Payload *v = heap_pay_.data();
    const Payload p = v[0];
    std::size_t i = 0;
    while (true) {
        std::size_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && k[c + 1] < k[c])
            ++c;
        if (!(k[c] < key))
            break;
        k[i] = k[c];
        v[i] = v[c];
        i = c;
    }
    k[i] = key;
    v[i] = p;
}

JETSIM_HOT inline Tick
EventQueue::causal(Tick when) const
{
    if (when < now_) {
        JETSIM_VIOLATION(check::Severity::Error,
                         check::Invariant::Causality,
                         detail::kEqComponent, now_,
                         "event scheduled into the past (when=%lld < "
                         "now=%lld)",
                         static_cast<long long>(when),
                         static_cast<long long>(now_));
        return now_; // sanitise so Log mode can continue
    }
    return when;
}

JETSIM_HOT inline Tick
EventQueue::whenIn(Tick delay) const
{
    JETSIM_CHECK(delay >= 0, check::Severity::Error,
                 check::Invariant::Causality, detail::kEqComponent,
                 now_, "negative delay %lld",
                 static_cast<long long>(delay));
    if (delay < 0)
        delay = 0;
    // Saturate instead of overflowing past kTickMax (UB on int64).
    return delay > kTickMax - now_ ? kTickMax : now_ + delay;
}

JETSIM_HOT inline void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    scheduleKeyed(when, std::move(cb), priority, seq_++);
}

JETSIM_HOT inline void
EventQueue::scheduleKeyed(Tick when, Callback cb, int priority,
                          std::uint64_t seq)
{
    when = causal(when);
    JETSIM_ASSERT(static_cast<bool>(cb));
    if (priority < kPriPackMin || priority > kPriPackMax) {
        JETSIM_VIOLATION(check::Severity::Error,
                         check::Invariant::Plausibility,
                         detail::kEqComponent, now_,
                         "priority %d outside the packable range "
                         "[%d, %d]; clamping",
                         priority, kPriPackMin, kPriPackMax);
        priority = priority < kPriPackMin ? kPriPackMin : kPriPackMax;
    }
    Index idx;
    if (free_.empty()) {
        idx = static_cast<Index>(slots_.size());
        JETSIM_COLD_OK("amortized: geometric vector growth, reserved up front; grows only past the queue's high-water depth")
        slots_.push_back(std::move(cb));
    } else {
        idx = free_.back();
        free_.pop_back();
        slots_[idx] = std::move(cb);
    }
    heapPush(makeKey(when, priority, seq), slotPayload(idx));
    if (pending() > peak_pending_)
        peak_pending_ = pending();
}

JETSIM_HOT inline void
EventQueue::scheduleMessage(Tick when, Callback cb, int priority,
                            std::uint64_t msg_seq)
{
    JETSIM_CHECK(msg_seq < kMessageSeqLimit, check::Severity::Error,
                 check::Invariant::Plausibility, detail::kEqComponent,
                 now_,
                 "message seq %llu outside the reserved low band",
                 static_cast<unsigned long long>(msg_seq));
    scheduleKeyed(when, std::move(cb), priority,
                  msg_seq & (kMessageSeqLimit - 1));
}

JETSIM_HOT inline void
EventQueue::arm(Timer &t, Tick when)
{
    JETSIM_ASSERT(!t.armed_);
    t.armed_ = true;
    const HeapKey key = makeKey(causal(when), t.priority_, seq_++);
    if (held_ && heap_pay_.front() == timerPayload(&t)) {
        // The firing timer re-arms itself: its held entry takes the
        // new key, which is larger (a later seq, no earlier tick).
        held_ = false;
        heapReplaceTop(key);
    } else {
        heapPush(key, timerPayload(&t));
    }
    if (pending() > peak_pending_)
        peak_pending_ = pending();
}

JETSIM_HOT inline void
EventQueue::armIn(Timer &t, Tick delay)
{
    arm(t, whenIn(delay));
}

JETSIM_HOT inline void
EventQueue::disarm(Timer &t)
{
    if (!t.armed_)
        return;
    t.armed_ = false;
    const Payload p = timerPayload(&t);
    std::size_t i = 0;
    while (i < heap_pay_.size() && heap_pay_[i] != p)
        ++i;
    JETSIM_ASSERT(i < heap_pay_.size(), "an armed timer is not queued");
    heapRemove(i);
}

JETSIM_HOT inline bool
EventQueue::peekNext(NextEvent &out) const
{
    if (empty())
        return false;
    HeapKey key = heap_keys_.front();
    if (held_) {
        // Past the held root, the next key is its smaller child.
        key = heap_keys_[1];
        if (heap_keys_.size() > 2 && heap_keys_[2] < key)
            key = heap_keys_[2];
    }
    out.when = keyWhen(key);
    out.priority = keyPriority(key);
    out.seq = keySeq(key);
    return true;
}

JETSIM_HOT inline void
EventQueue::scheduleIn(Tick delay, Callback cb, int priority)
{
    schedule(whenIn(delay), std::move(cb), priority);
}

JETSIM_HOT inline void
EventQueue::checkDispatch(HeapKey key)
{
    // Dispatch keys are a total order (seq is unique), so "time never
    // runs backwards" and "same-tick events leave in (priority,
    // insertion) order" collapse into one invariant: keys must come
    // out strictly increasing. One compare on the hot path; the
    // violation path unpacks the key for the report.
    //
    // Under a Chooser the insertion-order (seq) component is exactly
    // what the controlled scheduler is allowed to permute, so the
    // invariant weakens to the (when, priority) prefix: time still
    // never runs backwards and priorities still order a tick.
    const bool ok =
        chooser_ == nullptr
            ? key > last_key_
            : (key & ~HeapKey(kSeqMask)) >=
                  (last_key_ & ~HeapKey(kSeqMask));
    if (executed_ > 0 && !ok) {
        JETSIM_VIOLATION(check::Severity::Error,
                         check::Invariant::Causality,
                         detail::kEqComponent, now_,
                         "dispatch out of order (when=%lld pri=%d "
                         "seq=%llu after when=%lld pri=%d seq=%llu)",
                         static_cast<long long>(keyWhen(key)),
                         keyPriority(key),
                         static_cast<unsigned long long>(keySeq(key)),
                         static_cast<long long>(keyWhen(last_key_)),
                         keyPriority(last_key_),
                         static_cast<unsigned long long>(
                             keySeq(last_key_)));
    }
    last_key_ = key;
}

JETSIM_HOT inline void
EventQueue::dispatch(HeapKey key, Payload p)
{
    checkDispatch(key);
    now_ = keyWhen(key);
    ++executed_;
    if (isTimer(p)) {
        // Disarmed before the call, so the target may re-arm it.
        Timer *t = timerOf(p);
        t->armed_ = false;
        t->fire_(t->owner_);
        return;
    }
    // Moved out and its slot freed before the call: the callback may
    // schedule, and growing slots_ moves every slot.
    const Index idx = slotOf(p);
    Callback cb = std::move(slots_[idx]);
    JETSIM_COLD_OK("amortized: reserved up front; the freelist never outgrows slots_, so it stops growing at the queue's high-water depth")
    free_.push_back(idx);
    cb();
}

JETSIM_HOT inline void
EventQueue::runTop()
{
    const HeapKey key = heap_keys_.front();
    const Payload p = heap_pay_.front();
    if (isTimer(p))
        held_ = true;
    else
        heapRemove(0);
    dispatch(key, p);
    if (held_) {
        held_ = false;
        heapRemove(0);
    }
}

JETSIM_HOT inline bool
EventQueue::runOne()
{
    if (chooser_ != nullptr)
        return runOneControlled();
    if (heap_keys_.empty())
        return false;
    runTop();
    return true;
}

JETSIM_HOT inline std::uint64_t
EventQueue::runUntil(Tick horizon)
{
    JETSIM_CHECK(horizon >= now_, check::Severity::Error,
                 check::Invariant::Causality, detail::kEqComponent,
                 now_, "runUntil horizon %lld is in the past",
                 static_cast<long long>(horizon));
    std::uint64_t n = 0;
    if (chooser_ != nullptr) {
        // Controlled scheduling: same horizon semantics, but every
        // pop goes through the tie-break choice point.
        while (!heap_keys_.empty() &&
               keyWhen(heap_keys_.front()) <= horizon) {
            runOneControlled();
            ++n;
        }
    } else {
        while (!heap_keys_.empty() &&
               keyWhen(heap_keys_.front()) <= horizon) {
            runTop();
            ++n;
        }
    }
    if (horizon > now_)
        now_ = horizon;
    return n;
}

JETSIM_HOT inline std::uint64_t
EventQueue::runAll(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && runOne())
        ++n;
    return n;
}

} // namespace jetsim::sim

#endif // JETSIM_SIM_EVENT_QUEUE_HH
