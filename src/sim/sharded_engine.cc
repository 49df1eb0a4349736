#include "sim/sharded_engine.hh"

#include <algorithm>

#include "core/hot_annotations.hh"
#include "sim/logging.hh"

namespace jetsim::sim {

namespace {
constexpr const char *kComponent = "sim.sharded_engine";

/** a + b, saturating at kTickMax (both operands >= 0). */
Tick
addSat(Tick a, Tick b)
{
    return a > kTickMax - b ? kTickMax : a + b;
}

/** L * windows, saturating at kTickMax. */
Tick
windowsSpan(Tick lookahead, std::uint64_t windows)
{
    return lookahead > kTickMax / static_cast<Tick>(windows)
               ? kTickMax
               : lookahead * static_cast<Tick>(windows);
}
} // namespace

ShardedEngine::ShardedEngine(Options opts)
{
    JETSIM_ASSERT(opts.shards >= 1);
    JETSIM_ASSERT(opts.threads >= 1);
    JETSIM_ASSERT(opts.lookahead >= 0);
    shards_.reserve(static_cast<std::size_t>(opts.shards));
    for (int s = 0; s < opts.shards; ++s)
        shards_.push_back(std::make_unique<Shard>());
    threads_ = std::min(opts.threads, opts.shards);
    lookahead_ = opts.lookahead;
    run_ahead_ = windowsSpan(lookahead_, kRunAheadWindows);
    slice_span_ = windowsSpan(lookahead_, kSliceWindows);
}

ShardedEngine::~ShardedEngine()
{
    if (!workers_.empty()) {
        // Parked workers see stop_ on the next generation.
        stop_ = true;
        run_gen_.fetch_add(1, std::memory_order_release);
        run_gen_.notify_all();
        for (auto &t : workers_)
            t.join();
    }
    // Undelivered messages (posts past the last runUntil target) are
    // dropped with their captured state; the queues destroy their own
    // pending events and the outboxes their own blocks.
}

EventQueue &
ShardedEngine::shard(int s)
{
    JETSIM_ASSERT(s >= 0 && s < shards());
    return shards_[static_cast<std::size_t>(s)]->eq;
}

int
ShardedEngine::addPort(int shard_idx, bool local_only)
{
    JETSIM_ASSERT(shard_idx >= 0 && shard_idx < shards());
    JETSIM_ASSERT(static_cast<int>(port_shard_.size()) < kMaxPorts);
    port_shard_.push_back(shard_idx);
    port_local_.push_back(local_only);
    port_count_.push_back(0);
    Shard &sh = *shards_[static_cast<std::size_t>(shard_idx)];
    if (!local_only && !sh.posts()) {
        sh.out.resize(shards_.size());
        for (int d = 0; d < shards(); ++d)
            if (d != shard_idx)
                sh.out[static_cast<std::size_t>(d)] =
                    std::make_unique<Outbox<Msg>>();
    }
    return static_cast<int>(port_shard_.size()) - 1;
}

JETSIM_HOT void
ShardedEngine::post(int src_port, int dst_shard, Tick when,
                    EventQueue::Callback cb, int priority)
{
    JETSIM_ASSERT(src_port >= 0 &&
                  src_port < static_cast<int>(port_shard_.size()));
    JETSIM_ASSERT(dst_shard >= 0 && dst_shard < shards());
    JETSIM_ASSERT(static_cast<bool>(cb));
    const int src_shard = port_shard_[static_cast<std::size_t>(src_port)];
    const bool local_only =
        port_local_[static_cast<std::size_t>(src_port)];
    // A local_only port never crosses shards: that is what keeps its
    // shard off the poster list.
    JETSIM_ASSERT(!local_only || dst_shard == src_shard);
    Shard &src = *shards_[static_cast<std::size_t>(src_shard)];
    // The conservative bound: a message must not land below the
    // horizon the sender's clock granted its receivers. With
    // lookahead 0 (merge mode) one tick of latency still keeps the
    // dispatch-key order shard-count-invariant; a local_only post is
    // a same-heap insert, so one tick suffices at any lookahead.
    const Tick min_delay =
        local_only ? 1 : (lookahead_ > 0 ? lookahead_ : 1);
    if (when < src.eq.now() + min_delay) {
        JETSIM_VIOLATION(check::Severity::Error,
                         check::Invariant::Causality, kComponent,
                         src.eq.now(),
                         "cross-shard post at when=%lld violates the "
                         "lookahead bound (src now=%lld, min "
                         "delay=%lld)",
                         static_cast<long long>(when),
                         static_cast<long long>(src.eq.now()),
                         static_cast<long long>(min_delay));
        when = src.eq.now() + min_delay; // sanitise for Log mode
    }
    // Deterministic low-band seq: (port, per-port counter) — a pure
    // function of what the simulation sent, never of when the clock
    // protocol delivers it. The counter is written only from the
    // port's own shard, so no synchronisation is needed.
    auto &count = port_count_[static_cast<std::size_t>(src_port)];
    const std::uint64_t seq =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
             src_port))
         << 32) |
        count++;
    JETSIM_ASSERT(seq < EventQueue::kMessageSeqLimit);

    if (dst_shard == src_shard || !parallel_) {
        // Same shard — or only the caller runs shards (merge mode,
        // one thread): insert directly.
        shards_[static_cast<std::size_t>(dst_shard)]->eq.scheduleMessage(
            when, std::move(cb), priority, seq);
        return;
    }
    src.out[static_cast<std::size_t>(dst_shard)]->push(
        Msg{when, priority, seq, std::move(cb)});
}

JETSIM_HOT void
ShardedEngine::settle(int s)
{
    Shard &sh = *shards_[static_cast<std::size_t>(s)];
    std::size_t k = 0;
    for (auto &poster : shards_) {
        if (!poster->posts() || poster.get() == &sh)
            continue;
        k += poster->out[static_cast<std::size_t>(s)]->drain(
            [&sh](Msg &&m) {
                sh.eq.scheduleMessage(m.when, std::move(m.cb),
                                      m.priority, m.seq);
            });
    }
    sh.max_inbox = std::max(sh.max_inbox, static_cast<std::uint64_t>(k));
}

std::uint64_t
ShardedEngine::executedTotal() const
{
    std::uint64_t n = 0;
    for (const auto &sp : shards_)
        n += sp->eq.executed();
    return n;
}

bool
ShardedEngine::nextEventTime(Tick &when)
{
    bool any = false;
    EventQueue::NextEvent e;
    for (int s = 0; s < shards(); ++s) {
        settle(s);
        if (!shards_[static_cast<std::size_t>(s)]->eq.peekNext(e))
            continue;
        if (!any || e.when < when)
            when = e.when;
        any = true;
    }
    return any;
}

std::uint64_t
ShardedEngine::runUntil(Tick target)
{
    std::uint64_t n = 0;
    if (shards() == 1) {
        // Single shard: the engine is exactly one EventQueue; run it
        // directly (no merge bookkeeping, no clocks).
        // The queue handles an installed Chooser itself.
        return shards_[0]->eq.runUntil(target);
    }
    // Messages left in the outboxes by the last run.
    for (int s = 0; s < shards(); ++s)
        settle(s);
    n = chooser_ != nullptr || lookahead_ == 0 ? runMerge(target)
                                               : runClocks(target);
    // Advance every shard clock to exactly the target (mirrors
    // EventQueue::runUntil semantics). The clock loop already left
    // every shard there, unless nothing was due or the target
    // saturates at kTickMax, whose events only this sync runs.
    for (auto &sp : shards_)
        if (sp->eq.now() < target)
            n += sp->eq.runUntil(target);
    return n;
}

std::uint64_t
ShardedEngine::runClocks(Tick target)
{
    // Nothing due at or before the target (a set-up-only window): the
    // caller's final clock sync is all the work, and no worker wakes.
    if (std::all_of(shards_.begin(), shards_.end(),
                    [target](const auto &sp) {
                        EventQueue::NextEvent e;
                        return !sp->eq.peekNext(e) || e.when > target;
                    }))
        return 0;
    const Tick cap = target >= kTickMax ? kTickMax : target + 1;
    const std::uint64_t before = executedTotal();
    // Every event below a shard's now has run; events at now may
    // still be pending.
    Tick floor = kTickMax;
    for (auto &sp : shards_) {
        sp->done_until.store(sp->eq.now(), std::memory_order_relaxed);
        floor = std::min(floor, sp->eq.now());
    }
    floor_.store(floor, std::memory_order_relaxed);
    if (threads_ == 1) {
        runShards(0, cap);
        return executedTotal() - before;
    }
    run_cap_ = cap;
    parallel_ = true;
    wakeWorkers();
    runShards(0, cap); // the caller is worker 0
    waitForWorkers();
    parallel_ = false;
    return executedTotal() - before;
}

JETSIM_HOT void
ShardedEngine::runShards(int worker, Tick cap)
{
    RunCounts counts;
    for (;;) {
        int unfinished = 0;
        if (runNext(worker, true, cap, counts, unfinished) ||
            runNext(worker, false, cap, counts, unfinished))
            continue;
        if (unfinished == 0)
            break;
        // Every shard below the cap is claimed or waiting on a
        // poster's clock that another worker is advancing.
        ++counts.idle;
        // jethot: allow(hot-spin, hot-io) idle worker: the yield spin is the design — it ends when a worker publishes a clock, and the slowest shard can always run
        std::this_thread::yield();
    }
    epochs_.fetch_add(counts.epochs, std::memory_order_relaxed);
    barriers_.fetch_add(counts.idle, std::memory_order_relaxed);
}

JETSIM_HOT bool
ShardedEngine::runNext(int worker, bool own, Tick cap, RunCounts &counts,
                       int &unfinished)
{
    // Posters first: the other shards' horizons wait on their clocks.
    // Every non-poster has the same horizon (the posters' smallest
    // clock + L), so only the slowest one that is free needs trying.
    int slowest = -1;
    Tick slowest_clock = kTickMax;
    for (int s = 0; s < shards(); ++s) {
        if ((s % threads_ == worker) != own)
            continue;
        const Shard &sh = *shards_[static_cast<std::size_t>(s)];
        const Tick c = sh.done_until.load(std::memory_order_relaxed);
        if (c >= cap)
            continue;
        ++unfinished;
        // Another worker's shard is worth taking only while its owner
        // is busy with a different one; otherwise the owner runs it
        // next and its state stays in the owner's cache.
        if (!own && !ownerBusyElsewhere(s))
            continue;
        if (sh.posts()) {
            if (runSlice(s, cap, counts))
                return true;
        } else if (c < slowest_clock &&
                   !sh.busy.load(std::memory_order_relaxed))
        {
            slowest = s;
            slowest_clock = c;
        }
    }
    return slowest >= 0 && runSlice(slowest, cap, counts);
}

JETSIM_HOT bool
ShardedEngine::ownerBusyElsewhere(int s) const
{
    for (int t = s % threads_; t < shards(); t += threads_)
        if (t != s && shards_[static_cast<std::size_t>(t)]->busy.load(
                          std::memory_order_relaxed))
            return true;
    return false;
}

JETSIM_HOT bool
ShardedEngine::runSlice(int s, Tick cap, RunCounts &counts)
{
    Shard &sh = *shards_[static_cast<std::size_t>(s)];
    // Look before claiming: clocks only grow, so a stale horizon is
    // low — a missed chance, never an unsafe run.
    if (sh.busy.load(std::memory_order_relaxed) ||
        sh.done_until.load(std::memory_order_relaxed) >= horizon(s, cap))
        return false;
    if (sh.busy.exchange(true, std::memory_order_acquire))
        return false;
    // Claimed: the clock is ours now. Read the others' clocks
    // (acquire) *before* draining, so every post below the horizon
    // they admit is already in an outbox to this shard.
    const Tick from = sh.done_until.load(std::memory_order_relaxed);
    const Tick h = horizon(s, cap);
    if (from >= h) {
        sh.busy.store(false, std::memory_order_release);
        return false;
    }
    settle(s);
    EventQueue::NextEvent e;
    const Tick next = sh.eq.peekNext(e) ? e.when : kTickMax;
    const Tick until =
        std::min(h, addSat(std::max(from, next), slice_span_));
    sh.eq.runUntil(until - 1);
    // seq_cst (a release store too): of two shards published at
    // once, one of them sees the other's clock in raiseFloor.
    sh.done_until.store(until, std::memory_order_seq_cst);
    sh.busy.store(false, std::memory_order_release);
    raiseFloor(counts);
    return true;
}

JETSIM_HOT void
ShardedEngine::raiseFloor(RunCounts &counts)
{
    Tick m = kTickMax;
    for (const auto &sp : shards_)
        m = std::min(m, sp->done_until.load(std::memory_order_seq_cst));
    // One attempt: a failed CAS means another worker raised the floor
    // (and counted it) meanwhile.
    Tick f = floor_.load(std::memory_order_relaxed);
    if (m > f && floor_.compare_exchange_strong(
                     f, m, std::memory_order_relaxed))
        ++counts.epochs;
}

JETSIM_HOT Tick
ShardedEngine::horizon(int s, Tick cap) const
{
    // Safety: a poster's events all run at or after its clock, so
    // nothing it has yet to post lands below its clock + L. Shards
    // without a non-local port post to no one and bound nothing.
    Tick h = cap;
    Tick others_min = kTickMax;
    for (int t = 0; t < shards(); ++t) {
        if (t == s)
            continue;
        const Shard &o = *shards_[static_cast<std::size_t>(t)];
        const Tick c = o.done_until.load(std::memory_order_acquire);
        others_min = std::min(others_min, c);
        if (o.posts())
            h = std::min(h, addSat(c, lookahead_));
    }
    // The backlog bound: a poster's posts wait in its outboxes to the
    // shards it runs ahead of.
    if (shards_[static_cast<std::size_t>(s)]->posts())
        h = std::min(h, addSat(others_min, run_ahead_));
    return h;
}

JETSIM_COLD_OK("once per engine: worker threads spawned at the first parallel run or forEachShard, parked between rounds")
void
ShardedEngine::startWorkers()
{
    if (!workers_.empty())
        return;
    const std::uint32_t gen = run_gen_.load(std::memory_order_relaxed);
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int w = 1; w < threads_; ++w)
        workers_.emplace_back([this, w, gen] { workerLoop(w, gen); });
}

/** Start a round on the parked workers (spawning them the first
 * time); run_cap_ or job_ is already set. */
void
ShardedEngine::wakeWorkers()
{
    startWorkers();
    running_.store(threads_ - 1, std::memory_order_relaxed);
    run_gen_.fetch_add(1, std::memory_order_release);
    run_gen_.notify_all();
}

/** Wait until every worker has finished the round; what they wrote is
 * then visible to the caller. */
void
ShardedEngine::waitForWorkers()
{
    for (int r = running_.load(std::memory_order_acquire); r != 0;
         r = running_.load(std::memory_order_acquire))
        running_.wait(r, std::memory_order_acquire);
}

void
ShardedEngine::workerLoop(int worker, std::uint32_t seen)
{
    for (;;) {
        run_gen_.wait(seen, std::memory_order_acquire);
        seen = run_gen_.load(std::memory_order_acquire);
        if (stop_)
            return;
        // jethot: boundary(runJob) a forEachShard round runs between clock runs, never inside one: per-shard set-up, reduction and tear-down, cold code of the caller's
        if (job_ != nullptr)
            runJob(worker);
        else
            runShards(worker, run_cap_);
        if (running_.fetch_sub(1, std::memory_order_release) == 1)
            running_.notify_one();
    }
}

void
ShardedEngine::forEachShard(const std::function<void(int)> &fn) noexcept
{
    // Not from inside a parallel run or another round.
    JETSIM_ASSERT(!parallel_ && job_ == nullptr);
    if (threads_ == 1 || chooser_ != nullptr) {
        for (int s = 0; s < shards(); ++s)
            fn(s);
        return;
    }
    job_ = &fn;
    wakeWorkers();
    runJob(0); // the caller is worker 0
    waitForWorkers();
    job_ = nullptr;
}

/** The shards @p worker owns in the clock loop, through job_. */
void
ShardedEngine::runJob(int worker)
{
    for (int s = worker; s < shards(); s += threads_)
        (*job_)(s);
}

bool
ShardedEngine::mergeOne(Tick target)
{
    // Execute the globally smallest (when, priority, seq, shard) at or
    // below the target. Cross-shard ties on the (when, priority)
    // prefix are the ShardMerge arbitration sites: the default
    // (alternative 0) is the smallest (seq, shard), which the clock
    // path reproduces by construction — message seqs order messages,
    // and cross-shard *local* ties are independent events whose order
    // is unobservable (DESIGN.md §4i).
    int best = -1;
    EventQueue::NextEvent best_e;
    for (int s = 0; s < shards(); ++s) {
        EventQueue::NextEvent e;
        if (!shards_[static_cast<std::size_t>(s)]->eq.peekNext(e) ||
            e.when > target)
            continue;
        if (best < 0 || e.when < best_e.when ||
            (e.when == best_e.when &&
             (e.priority < best_e.priority ||
              (e.priority == best_e.priority && e.seq < best_e.seq))))
        {
            best = s;
            best_e = e;
        }
    }
    if (best < 0)
        return false;

    int pick = best;
    if (chooser_ != nullptr) {
        // Collect every shard tied on the (when, priority) prefix,
        // default first, shard index as the actor tag.
        int cand[kMaxChoiceAlts];
        std::int64_t actors[kMaxChoiceAlts];
        int nc = 0;
        cand[nc] = best;
        actors[nc++] = best;
        for (int s = 0; s < shards() && nc < kMaxChoiceAlts; ++s) {
            if (s == best)
                continue;
            EventQueue::NextEvent e;
            if (shards_[static_cast<std::size_t>(s)]->eq.peekNext(e) &&
                e.when == best_e.when && e.priority == best_e.priority)
            {
                cand[nc] = s;
                actors[nc++] = s;
            }
        }
        if (nc > 1) {
            const int c =
                chooser_->choose(ChoiceKind::ShardMerge, actors, nc);
            JETSIM_ASSERT(c >= 0 && c < nc);
            pick = cand[c];
        }
    }
    ++merge_steps_;
    const bool ran = shards_[static_cast<std::size_t>(pick)]->eq.runOne();
    JETSIM_ASSERT(ran);
    return true;
}

std::uint64_t
ShardedEngine::runMerge(Tick target)
{
    std::uint64_t n = 0;
    while (mergeOne(target))
        ++n;
    return n;
}

std::uint64_t
ShardedEngine::runAll(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    if (shards() == 1) {
        while (n < max_events && shards_[0]->eq.runOne())
            ++n;
        return n;
    }
    for (int s = 0; s < shards(); ++s)
        settle(s);
    if (chooser_ != nullptr || lookahead_ == 0) {
        while (n < max_events && mergeOne(kTickMax))
            ++n;
        return n;
    }
    Tick when = 0;
    while (n < max_events && nextEventTime(when)) {
        if (when > kTickMax - lookahead_) {
            // Saturated tail (events scheduled at or near kTickMax):
            // no horizon can pass them, so merge serially.
            if (!mergeOne(kTickMax))
                break;
            ++n;
            continue;
        }
        // Drain step: run every shard one lookahead past the
        // current minimum.
        n += runClocks(when + lookahead_);
    }
    return n;
}

void
ShardedEngine::setChooser(Chooser *c)
{
    chooser_ = c;
    for (auto &sp : shards_)
        sp->eq.setChooser(c);
}

ShardedEngine::Stats
ShardedEngine::stats() const
{
    Stats st;
    st.shards = static_cast<int>(shards_.size());
    st.threads = threads_;
    st.lookahead = lookahead_;
    st.epochs = epochs_.load(std::memory_order_relaxed);
    st.barriers = barriers_.load(std::memory_order_relaxed);
    st.merge_steps = merge_steps_;
    for (const auto &sp : shards_) {
        st.executed += sp->eq.executed();
        st.max_inbox = std::max(st.max_inbox, sp->max_inbox);
    }
    for (const std::uint32_t c : port_count_)
        st.messages += c;
    return st;
}

} // namespace jetsim::sim
