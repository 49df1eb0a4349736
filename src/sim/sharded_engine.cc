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
        shards_.push_back(std::make_unique<Shard>(opts.inbox_capacity));
    threads_ = std::min(opts.threads, opts.shards);
    lookahead_ = opts.lookahead;
    if (opts.batch_windows != 0)
        batch_span_ = windowsSpan(lookahead_, opts.batch_windows);
    run_ahead_ = windowsSpan(lookahead_, kRunAheadWindows);
}

ShardedEngine::~ShardedEngine()
{
    stopWorkers();
    // Undelivered messages (posts past the last runUntil target) are
    // dropped with their captured state; the queues destroy their own
    // pending events and the rings their own blocks.
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
    if (!local_only && !sh.posts) {
        sh.posts = true;
        ++posters_;
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
    // A local_only port never crosses shards: that is what exempts
    // its shard from the gmin_post horizon bound.
    JETSIM_ASSERT(!local_only || dst_shard == src_shard);
    Shard &src = *shards_[static_cast<std::size_t>(src_shard)];
    // The conservative bound: a message must not land inside the
    // horizon the epoch that sent it was allowed to run under. With
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
    // function of what the simulation sent, never of when the epoch
    // protocol delivers it. The counter is written only from the
    // port's own shard, so no synchronisation is needed.
    auto &count = port_count_[static_cast<std::size_t>(src_port)];
    const std::uint64_t seq =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
             src_port))
         << 32) |
        count++;
    JETSIM_ASSERT(seq < EventQueue::kMessageSeqLimit);

    Shard &dst = *shards_[static_cast<std::size_t>(dst_shard)];
    if (dst_shard == src_shard || threads_ == 1) {
        // Same shard — or everything runs on the caller thread (merge
        // mode and single-threaded epochs): insert directly. The
        // cache min-update keeps next_when exact even when the
        // destination's slice (or an idle skip) already refreshed it
        // this round — without it a single-threaded cross-shard post
        // into an earlier-indexed shard would go stale-late.
        dst.eq.scheduleMessage(when, std::move(cb), priority, seq);
        if (when < dst.next_when.load(std::memory_order_relaxed))
            dst.next_when.store(when, std::memory_order_relaxed);
        return;
    }
    msgs_pending_.fetch_add(1, std::memory_order_relaxed);
    dst.inbox.push(Msg{when, priority, seq, std::move(cb)});
}

JETSIM_HOT void
ShardedEngine::deliverInboxes()
{
    std::uint64_t delivered = 0;
    for (auto &sp : shards_) {
        Shard &s = *sp;
        Tick min_when = s.next_when.load(std::memory_order_relaxed);
        const std::size_t k = s.inbox.drain([&](Msg &&m) {
            if (m.when < min_when)
                min_when = m.when;
            s.eq.scheduleMessage(m.when, std::move(m.cb), m.priority,
                                 m.seq);
        });
        if (k != 0) {
            s.next_when.store(min_when, std::memory_order_relaxed);
            max_inbox_ =
                std::max(max_inbox_, static_cast<std::uint64_t>(k));
            delivered += k;
        }
    }
    if (delivered != 0)
        msgs_pending_.fetch_sub(delivered, std::memory_order_relaxed);
}

void
ShardedEngine::refreshCache(Shard &sh)
{
    EventQueue::NextEvent e;
    sh.next_when.store(sh.eq.peekNext(e) ? e.when : kTickMax,
                       std::memory_order_relaxed);
}

void
ShardedEngine::refreshAll()
{
    // Public entry points resync every cache: the user may have
    // scheduled or cancelled events directly on the shard queues
    // since the last run.
    for (auto &sp : shards_)
        refreshCache(*sp);
}

JETSIM_HOT ShardedEngine::Mins
ShardedEngine::reduceMins() const
{
    // One linear pass over the cached per-shard next-event times:
    // gmin (the earliest work anywhere), gmin_post (the earliest tick
    // at which anything *could* post), the poster holding it and the
    // runner-up poster time. Reading K relaxed atomics beats K heap
    // peeks.
    Mins m;
    for (int s = 0; s < shards(); ++s) {
        const Shard &sh = *shards_[static_cast<std::size_t>(s)];
        const Tick w = sh.next_when.load(std::memory_order_relaxed);
        m.all = std::min(m.all, w);
        if (!sh.posts)
            continue;
        if (m.lead < 0 || w < m.post) {
            m.post2 = m.post;
            m.post = w;
            m.lead = s;
        } else {
            m.post2 = std::min(m.post2, w);
        }
    }
    return m;
}

bool
ShardedEngine::nextEventTime(Tick &when)
{
    if (msgs_pending_.load(std::memory_order_relaxed) != 0)
        deliverInboxes();
    // Exact peek sweep (not the caches): this is a public query and
    // must see events parked at kTickMax, which the cache sentinel
    // cannot distinguish from empty.
    bool any = false;
    EventQueue::NextEvent e;
    for (auto &sp : shards_) {
        refreshCache(*sp);
        if (!sp->eq.peekNext(e))
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
        // directly (no merge bookkeeping, no barrier, no caches).
        // The queue handles an installed Chooser itself.
        n = shards_[0]->eq.runUntil(target);
        refreshCache(*shards_[0]);
        return n;
    }
    refreshAll();
    n = chooser_ != nullptr || lookahead_ == 0 ? runMerge(target)
                                               : runEpochs(target);
    // Advance every shard clock to exactly the target (mirrors
    // EventQueue::runUntil semantics); nothing is pending at or
    // before it. Idle-skipped shards catch up here too.
    for (auto &sp : shards_)
        if (sp->eq.now() < target)
            sp->eq.runUntil(target);
    return n;
}

JETSIM_HOT std::uint64_t
ShardedEngine::runEpochs(Tick target)
{
    std::uint64_t n = 0;
    const Tick cap = target >= kTickMax ? kTickMax : target + 1;
    // How far the lead may pass the receivers' horizon: with other
    // posters, one more lookahead (its own earliest post can reach a
    // peer at gmin_post + L, whose reply lands a lookahead later);
    // alone, nothing can ever reach it, and only the backlog cap
    // binds.
    const Tick reach = posters_ > 1 ? lookahead_ : run_ahead_;
    for (;;) {
        if (msgs_pending_.load(std::memory_order_relaxed) != 0)
            deliverInboxes();
        const Mins m = reduceMins();
        // gmin == kTickMax: nothing schedulable below the sentinel.
        // (An event *at* kTickMax is indistinguishable from empty
        // here; runUntil's final clock sync — or runAll's saturated
        // tail merge — executes those.)
        if (m.all >= kTickMax || m.all > target)
            return n;
        // Safety argument: every cross-shard post originates on a
        // poster, whose events this epoch all run at when >=
        // gmin_post — so a message lands at when >= gmin_post + L >=
        // the receivers' horizon. The lead receives only from the
        // other posters, which cannot act before min(post2, gmin_post
        // + L); their posts land a lookahead after that. Shards
        // without a non-local port can run arbitrarily far ahead,
        // which is what fuses many lookahead windows into one
        // barrier when gmin_post >> gmin, and a lead that runs ahead
        // pulls the receivers' next horizon along with it.
        const Tick recv = addSat(m.post, lookahead_);
        // batch_windows: at most that many windows past gmin (1
        // restores the classic single-window epoch for every shard).
        const Tick limit = addSat(m.all, batch_span_);
        horizons_.horizon = std::min({cap, recv, limit});
        horizons_.lead = m.lead;
        horizons_.lead_horizon =
            std::min({cap, limit, addSat(m.post2, lookahead_),
                      addSat(recv, reach)});
        ++epochs_;
        if (threads_ == 1) {
            n += runShardSlice(0, horizons_);
            continue;
        }
        startWorkers();
        executed_parallel_.store(0, std::memory_order_relaxed);
        barrierArrive(start_, start_sense_);
        n += runShardSlice(0, horizons_); // caller is worker 0
        barrierArrive(end_, end_sense_);
        barriers_ += 2;
        n += executed_parallel_.load(std::memory_order_relaxed);
    }
}

JETSIM_HOT std::uint64_t
ShardedEngine::runShardSlice(int worker, const Horizons &h)
{
    std::uint64_t n = 0;
    for (int s = worker; s < shards(); s += threads_) {
        Shard &sh = *shards_[static_cast<std::size_t>(s)];
        const Tick horizon = s == h.lead ? h.lead_horizon : h.horizon;
        if (sh.next_when.load(std::memory_order_relaxed) >= horizon)
            continue; // idle shard: no dispatch, no clock advance
        n += sh.eq.runUntil(horizon - 1);
        refreshCache(sh); // published through the end barrier
    }
    return n;
}

JETSIM_HOT void
ShardedEngine::barrierArrive(Barrier &b, bool &local_sense)
{
    const bool s = !local_sense;
    local_sense = s;
    if (b.count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        threads_)
    {
        // Last arriver: reset the count *before* flipping the sense,
        // so no thread from the next crossing can observe the stale
        // count (they only proceed past the sense flip).
        b.count.store(0, std::memory_order_relaxed);
        b.sense.store(s, std::memory_order_release);
    } else {
        // jethot: allow(hot-spin, hot-io) sense-reversing barrier: the spin (and its yield) is the design, bounded by the slowest shard's slice
        while (b.sense.load(std::memory_order_acquire) != s)
            std::this_thread::yield();
    }
}

JETSIM_HOT void
ShardedEngine::workerLoop(int worker)
{
    bool start_sense = false;
    bool end_sense = false;
    for (;;) {
        barrierArrive(start_, start_sense);
        if (stop_.load(std::memory_order_acquire))
            return;
        const std::uint64_t n = runShardSlice(worker, horizons_);
        if (n != 0)
            executed_parallel_.fetch_add(n, std::memory_order_relaxed);
        barrierArrive(end_, end_sense);
    }
}

JETSIM_COLD_OK("once per run: worker threads spawned lazily at the first parallel epoch, reused until stopWorkers()")
void
ShardedEngine::startWorkers()
{
    if (!workers_.empty() || threads_ <= 1)
        return;
    // No workers exist yet, so the barrier state can be reset
    // race-free (it also recovers from a previous stopWorkers()).
    start_.count.store(0, std::memory_order_relaxed);
    start_.sense.store(false, std::memory_order_relaxed);
    end_.count.store(0, std::memory_order_relaxed);
    end_.sense.store(false, std::memory_order_relaxed);
    start_sense_ = false;
    end_sense_ = false;
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int w = 1; w < threads_; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

void
ShardedEngine::stopWorkers()
{
    if (workers_.empty())
        return;
    // Workers park at the start barrier between epochs; one extra
    // crossing with stop_ raised releases them.
    stop_.store(true, std::memory_order_release);
    barrierArrive(start_, start_sense_);
    for (auto &t : workers_)
        t.join();
    workers_.clear();
    stop_.store(false, std::memory_order_release);
}

bool
ShardedEngine::mergeOne(Tick target)
{
    // Candidate = the shards whose *cached* next-event time equals
    // the cached minimum; peek only those, validating the cache on
    // the way (a cancel can leave it stale-early — refresh and
    // retry). Execute the globally smallest (when, priority, seq,
    // shard). Cross-shard ties on the (when, priority) prefix are the
    // ShardMerge arbitration sites: the default (alternative 0) is
    // the smallest (seq, shard), which the epoch path reproduces by
    // construction — message seqs order messages, and cross-shard
    // *local* ties are independent events whose order is unobservable
    // (DESIGN.md §4i).
    for (;;) {
        Tick m = kTickMax;
        for (auto &sp : shards_)
            m = std::min(
                m, sp->next_when.load(std::memory_order_relaxed));
        if (m > target)
            return false;

        int best = -1;
        EventQueue::NextEvent best_e;
        bool stale = false;
        for (int s = 0; s < shards(); ++s) {
            Shard &sh = *shards_[static_cast<std::size_t>(s)];
            // m == kTickMax: the sentinel cannot distinguish an
            // event parked at kTickMax from an empty shard — peek
            // everything (rare: only the saturated drain tail).
            if (m < kTickMax &&
                sh.next_when.load(std::memory_order_relaxed) != m)
                continue;
            EventQueue::NextEvent e;
            if (!sh.eq.peekNext(e)) {
                // Empty shard: only stale if the cache claimed work
                // (a drained shard at the kTickMax sentinel is the
                // steady state of the m == kTickMax sweep, not a
                // cache miss — flagging it would spin forever).
                if (sh.next_when.load(std::memory_order_relaxed) !=
                    kTickMax)
                {
                    refreshCache(sh);
                    stale = true;
                }
                continue;
            }
            if (e.when != m) {
                refreshCache(sh); // stale-early cache: fix, rescan
                stale = true;
                continue;
            }
            if (best < 0 || e.priority < best_e.priority ||
                (e.priority == best_e.priority && e.seq < best_e.seq))
            {
                best = s;
                best_e = e;
            }
        }
        if (best < 0) {
            if (stale)
                continue; // minimum moved under us: recompute
            return false; // genuinely nothing at or below target
        }

        int pick = best;
        if (chooser_ != nullptr) {
            // Collect every shard tied on the (when, priority)
            // prefix, default first, shard index as the actor tag.
            int cand[kMaxChoiceAlts];
            std::int64_t actors[kMaxChoiceAlts];
            int nc = 0;
            cand[nc] = best;
            actors[nc++] = best;
            for (int s = 0; s < shards() && nc < kMaxChoiceAlts;
                 ++s) {
                if (s == best)
                    continue;
                Shard &sh = *shards_[static_cast<std::size_t>(s)];
                EventQueue::NextEvent e;
                if (sh.eq.peekNext(e) && e.when == best_e.when &&
                    e.priority == best_e.priority)
                {
                    cand[nc] = s;
                    actors[nc++] = s;
                }
            }
            if (nc > 1) {
                const int c = chooser_->choose(ChoiceKind::ShardMerge,
                                               actors, nc);
                JETSIM_ASSERT(c >= 0 && c < nc);
                pick = cand[c];
            }
        }
        ++merge_steps_;
        Shard &psh = *shards_[static_cast<std::size_t>(pick)];
        const bool ran = psh.eq.runOne();
        JETSIM_ASSERT(ran);
        // The dispatched callback can only have scheduled into its
        // own shard (direct post inserts min-update theirs).
        refreshCache(psh);
        return true;
    }
}

std::uint64_t
ShardedEngine::runMerge(Tick target)
{
    std::uint64_t n = 0;
    for (;;) {
        if (msgs_pending_.load(std::memory_order_relaxed) != 0)
            deliverInboxes(); // posts buffer only when threads_ > 1,
                              // but stay correct under any config
        if (!mergeOne(target))
            return n;
        ++n;
    }
}

std::uint64_t
ShardedEngine::runAll(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    if (shards() == 1) {
        while (n < max_events && shards_[0]->eq.runOne())
            ++n;
        refreshCache(*shards_[0]);
        return n;
    }
    refreshAll();
    if (chooser_ != nullptr || lookahead_ == 0) {
        while (n < max_events) {
            if (msgs_pending_.load(std::memory_order_relaxed) != 0)
                deliverInboxes();
            if (!mergeOne(kTickMax))
                break;
            ++n;
        }
        return n;
    }
    Tick when = 0;
    while (n < max_events && nextEventTime(when)) {
        if (when > kTickMax - lookahead_) {
            // Saturated tail (events scheduled at or near kTickMax):
            // the epoch horizon cannot pass them, so merge serially.
            if (!mergeOne(kTickMax))
                break;
            ++n;
            continue;
        }
        // Epoch-drain: run one horizon past the current minimum.
        // runEpochs handles delivery, horizons and the barrier.
        n += runEpochs(when + lookahead_);
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
    st.epochs = epochs_;
    st.barriers = barriers_;
    st.merge_steps = merge_steps_;
    st.max_inbox = max_inbox_;
    for (const auto &sp : shards_) {
        st.executed += sp->eq.executed();
        st.ring_overflow += sp->inbox.overflowed();
    }
    for (const std::uint32_t c : port_count_)
        st.messages += c;
    return st;
}

} // namespace jetsim::sim
