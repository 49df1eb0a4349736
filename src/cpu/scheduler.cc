#include "cpu/scheduler.hh"

#include <algorithm>

#include "core/hot_annotations.hh"
#include "sim/logging.hh"

namespace jetsim::cpu {

// ---------------------------------------------------------------- Thread

Thread::Thread(int index, bool big, OsScheduler &sched)
    : index_(index), big_(big), sched_(sched),
      slice_end_(
          [](void *self) {
              auto *t = static_cast<Thread *>(self);
              t->sched_.sliceEnd(t);
          },
          this)
{
}

void
Thread::exec(sim::Tick work, sim::InlineFn done)
{
    JETSIM_ASSERT(work >= 0);
    queue_.push_back(WorkItem{work, std::move(done)});
    if (state_ == State::Idle)
        sched_.makeRunnable(this);
}

void
Thread::spin(sim::Tick chunk, const bool *ready, sim::InlineFn done)
{
    JETSIM_ASSERT(queue_.empty() && chunk > 0 && ready != nullptr);
    poll_ready_ = ready;
    poll_chunk_ = chunk;
    exec(chunk, std::move(done));
}

void
Thread::resetStats()
{
    cpu_time_ = 0;
    wake_wait_ = 0;
    preempt_wait_ = 0;
    cache_penalty_ = 0;
    preemptions_ = 0;
    migrations_ = 0;
    dispatches_ = 0;
}

// ----------------------------------------------------------- OsScheduler

OsScheduler::OsScheduler(soc::Board &board)
    : board_(board), eq_(board.eq())
{
    int id = 0;
    for (const auto &cluster : board_.spec().clusters)
        for (int i = 0; i < cluster.cores; ++i)
            cores_.push_back(Core{id++, cluster.big, nullptr, nullptr});
    JETSIM_ASSERT(!cores_.empty());
}

Thread *
OsScheduler::createThread(bool big)
{
    threads_.push_back(std::unique_ptr<Thread>(
        new Thread(static_cast<int>(threads_.size()), big, *this)));
    return threads_.back().get();
}

int
OsScheduler::busyCores(bool big) const
{
    int n = 0;
    for (const auto &c : cores_)
        if (c.big == big && c.running)
            ++n;
    return n;
}

void
OsScheduler::makeRunnable(Thread *t)
{
    JETSIM_ASSERT(t->state_ == Thread::State::Idle);
    t->state_ = Thread::State::Runnable;
    t->runnable_since_ = eq_.now();
    t->was_preempted_ = false;
    queueFor(t->big_).push_back(t);
    dispatchAll();
}

OsScheduler::Core *
OsScheduler::pickCore(Thread *t)
{
    Core *any = nullptr;
    for (auto &c : cores_) {
        if (c.running)
            continue;
        if (partitioned_ && c.big != t->big_)
            continue;
        if (c.id == t->last_core_)
            return &c; // warm core preferred
        if (!any)
            any = &c;
    }
    return any;
}

JETSIM_HOT void
OsScheduler::dispatchAll()
{
    sim::Chooser *chooser = eq_.chooser();
    for (auto *q : {&runq_big_, &runq_little_}) {
        while (!q->empty()) {
            std::size_t at = 0;
            if (chooser && q->size() >= 2) {
                // Controlled scheduling: the FIFO head is only one
                // legal pick — a real kernel's vruntime order depends
                // on timing noise we don't model, so any queued thread
                // may legally reach the free core first. Offer the
                // queue in order (head = default alternative 0),
                // tagged by thread index for the checker's
                // independence relation.
                std::int64_t actors[sim::kMaxChoiceAlts];
                const int nc = static_cast<int>(
                    std::min<std::size_t>(q->size(),
                                          sim::kMaxChoiceAlts));
                for (int i = 0; i < nc; ++i)
                    actors[i] = (*q)[static_cast<std::size_t>(i)]
                                    ->index();
                const int sel = chooser->choose(
                    sim::ChoiceKind::CpuRunQueue, actors, nc);
                JETSIM_ASSERT(sel >= 0 && sel < nc);
                at = static_cast<std::size_t>(sel);
            }
            Thread *t = (*q)[at];
            Core *core = pickCore(t);
            if (!core)
                break;
            q->erase(at);
            dispatch(*core, t);
        }
    }
}

JETSIM_HOT void
OsScheduler::dispatch(Core &core, Thread *t)
{
    JETSIM_ASSERT(t->state_ == Thread::State::Runnable);
    JETSIM_ASSERT(!t->queue_.empty());

    const sim::Tick wait = eq_.now() - t->runnable_since_;
    if (t->was_preempted_)
        t->preempt_wait_ += wait;
    else
        t->wake_wait_ += wait;

    // Cache-warmth penalty: a cold dispatch inflates the remaining
    // work of the current item (models L1/L2 refill after migration
    // or after another thread polluted this core's caches).
    const double pen = board_.spec().runtime.migration_penalty;
    auto &front = t->queue_.front();
    double factor = 0.0;
    if (t->last_core_ >= 0 && t->last_core_ != core.id) {
        factor = pen;
        ++t->migrations_;
    } else if (core.last_thread && core.last_thread != t) {
        factor = 0.5 * pen;
    }
    if (factor > 0.0) {
        // Refill cost is bounded by the working set touched in one
        // timeslice, not by the total remaining work (which would
        // diverge under repeated preemption).
        const sim::Tick touched =
            std::min(front.remaining,
                     board_.spec().runtime.timeslice);
        const auto add = static_cast<sim::Tick>(touched * factor);
        front.remaining += add;
        t->cache_penalty_ += add;
    }

    sim::Tick cs = 0;
    if (core.last_thread != t) {
        cs = board_.spec().runtime.context_switch;
        ++context_switches_;
    }

    t->state_ = Thread::State::Running;
    t->core_ = core.id;
    t->last_core_ = core.id;
    ++t->dispatches_;
    core.running = t;
    core.last_thread = t;
    core.dispatched_at = eq_.now();
    updateBoardActivity();

    const sim::Tick slice =
        std::min(front.remaining, board_.spec().runtime.timeslice);
    eq_.armIn(t->slice_end_, cs + slice);
}

JETSIM_HOT void
OsScheduler::sliceEnd(Thread *t)
{
    Core &core = cores_[static_cast<std::size_t>(t->core_)];
    JETSIM_ASSERT(core.running == t);
    JETSIM_ASSERT(!t->queue_.empty());

    // The front item cannot change while its slice runs, so this is
    // the slice dispatch() or the previous sliceEnd() armed.
    auto &front = t->queue_.front();
    const sim::Tick work_done =
        std::min(front.remaining, board_.spec().runtime.timeslice);
    front.remaining -= work_done;
    t->cpu_time_ += work_done;

    if (front.remaining <= 0) {
        if (t->poll_ready_ != nullptr && !*t->poll_ready_) {
            // A spin() poll found nothing: the same item polls
            // again, then the yield rule below runs as for any item.
            front.remaining = t->poll_chunk_;
        } else {
            t->poll_ready_ = nullptr;
            auto done = std::move(front.done);
            t->queue_.pop_front();
            if (done)
                done(); // may queue more work on this or other threads

            if (t->queue_.empty()) {
                idleThread(core, t);
                return;
            }
        }
    }

    // Work remains. Yield if someone is waiting for this core class
    // and the thread has run at least the CFS-like minimum
    // granularity; otherwise keep the core (no switch cost). The
    // granularity rule keeps micro-items (kernel-launch API calls)
    // from ping-ponging the core at microsecond scale.
    const sim::Tick min_granularity =
        board_.spec().runtime.timeslice / 2;
    if (!queueFor(t->big_).empty() &&
        eq_.now() - core.dispatched_at >= min_granularity) {
        t->state_ = Thread::State::Runnable;
        t->runnable_since_ = eq_.now();
        t->was_preempted_ = true;
        ++t->preemptions_;
        ++preemptions_;
        t->core_ = -1;
        core.running = nullptr;
        queueFor(t->big_).push_back(t);
        // A waiter takes the freed core at once, and that dispatch
        // publishes the board's CPU activity at this tick.
        dispatchAll();
        return;
    }

    eq_.armIn(t->slice_end_,
              std::min(t->queue_.front().remaining,
                       board_.spec().runtime.timeslice));
}

void
OsScheduler::idleThread(Core &core, Thread *t)
{
    t->state_ = Thread::State::Idle;
    t->core_ = -1;
    core.running = nullptr;
    updateBoardActivity();
    dispatchAll();
}

void
OsScheduler::updateBoardActivity()
{
    board_.setCpuActive(busyCores(true), busyCores(false));
}

} // namespace jetsim::cpu
