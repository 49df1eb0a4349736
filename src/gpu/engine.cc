#include "gpu/engine.hh"

#include <algorithm>
#include <cmath>

#include "check/check.hh"
#include "core/hot_annotations.hh"
#include "sim/logging.hh"

namespace jetsim::gpu {

namespace {
constexpr const char *kComponent = "gpu.engine";
}

GpuEngine::GpuEngine(soc::Board &board)
    : board_(board), eq_(board.eq()), cost_(board.spec()),
      jitter_(
          KernelCostModel::jitterStream(board.rng().fork("gpu-engine"))),
      start_timer_(
          [](void *self) { static_cast<GpuEngine *>(self)->startMux(); },
          this),
      finish_timer_(
          [](void *self) { static_cast<GpuEngine *>(self)->finishMux(); },
          this),
      spatial_timer_(
          [](void *self) {
              static_cast<GpuEngine *>(self)->spatialComplete();
          },
          this)
{
}

GpuEngine::~GpuEngine()
{
    JETSIM_ASSERT(subscribers_.empty(),
                  "%zu record subscription(s) outlive their engine",
                  subscribers_.size());
}

GpuEngine::Subscription
GpuEngine::subscribe(RecordFn fn)
{
    JETSIM_ASSERT(!in_callback_ && fn);
    Subscription sub(new RecordFn(std::move(fn)), Unsubscribe{this});
    subscribers_.push_back(sub.get());
    return sub;
}

void
GpuEngine::Unsubscribe::operator()(RecordFn *fn) const
{
    JETSIM_ASSERT(!engine->in_callback_);
    std::erase(engine->subscribers_, fn);
    delete fn;
}

int
GpuEngine::createChannel(const std::string &name, Callback on_done)
{
    JETSIM_ASSERT(!in_callback_);
    channels_.push_back(Channel{name, std::move(on_done), {}, false, true, 0});
    return static_cast<int>(channels_.size()) - 1;
}

void
GpuEngine::destroyChannel(int channel)
{
    JETSIM_ASSERT(channel >= 0 &&
                  channel < static_cast<int>(channels_.size()));
    auto &ch = channels_[channel];
    ch.alive = false;
    // Drop not-yet-started work: the channel's callback points into
    // the destroyed stream. The in-flight kernel (if any) completes
    // without calling it (complete() checks the alive flag).
    ch.queue.clear();
}

bool
GpuEngine::channelAlive(int channel) const
{
    return channel >= 0 &&
           channel < static_cast<int>(channels_.size()) &&
           channels_[channel].alive;
}

void
GpuEngine::submit(int channel, const KernelDesc *k)
{
    JETSIM_ASSERT(channel >= 0 &&
                  channel < static_cast<int>(channels_.size()));
    JETSIM_ASSERT(k != nullptr);
    auto &ch = channels_[channel];
    if (!ch.alive) {
        JETSIM_VIOLATION(check::Severity::Error,
                         check::Invariant::StreamHazard, kComponent,
                         eq_.now(),
                         "kernel '%s' submitted on destroyed stream "
                         "channel %d (%s)",
                         k->name.c_str(), channel, ch.name.c_str());
        return; // drop: the owning stream no longer exists
    }
    ch.queue.push_back(Queued{k, eq_.now()});
    ch.peak_depth = std::max(ch.peak_depth, channelDepth(channel));

    if (spatial_) {
        if (!ch.executing)
            spatialStart(channel);
    } else {
        scheduleNext();
    }
}

std::size_t
GpuEngine::channelDepth(int channel) const
{
    const auto &ch = channels_[channel];
    std::size_t depth = ch.queue.size();
    if (spatial_) {
        if (ch.executing)
            ++depth;
    } else if (busy_ && active_channel_ == channel) {
        ++depth;
    }
    return depth;
}

std::size_t
GpuEngine::peakChannelDepth(int channel) const
{
    JETSIM_ASSERT(channel >= 0 &&
                  channel < static_cast<int>(channels_.size()));
    return channels_[channel].peak_depth;
}

void
GpuEngine::setSpatialSharing(bool on)
{
    JETSIM_ASSERT(!busy_ && execs_.empty());
    spatial_ = on;
}

void
GpuEngine::publishIdleIfQuiet()
{
    if (!busy_ && execs_.empty())
        board_.setGpuState(false, 0, 0, 0, 0);
}

void
GpuEngine::complete(const KernelRecord &rec)
{
    Channel &ch = channels_[static_cast<std::size_t>(rec.channel)];
    if (!ch.alive)
        return; // owning stream destroyed mid-flight
    in_callback_ = true;
    for (RecordFn *fn : subscribers_)
        (*fn)(rec);
    if (ch.on_done)
        ch.on_done(); // may submit; submit() calls scheduleNext itself
    in_callback_ = false;
}

// ------------------------------------------------- time-multiplexed path

JETSIM_HOT void
GpuEngine::scheduleNext()
{
    if (busy_)
        return;

    const auto &rt = board_.spec().runtime;
    const int n = static_cast<int>(channels_.size());
    int pick = -1;

    if (active_channel_ >= 0 &&
        !channels_[active_channel_].queue.empty() &&
        eq_.now() - quantum_start_ < rt.gpu_quantum) {
        pick = active_channel_;
    } else if (sim::Chooser *chooser = eq_.chooser()) {
        // Controlled scheduling: at a quantum boundary any runnable
        // channel is a legal next occupant — real driver arbitration
        // gives no round-robin guarantee across processes. Offer the
        // runnable set with the rotation default first (alternative 0
        // must reproduce uncontrolled scheduling exactly).
        int cands[sim::kMaxChoiceAlts];
        std::int64_t actors[sim::kMaxChoiceAlts];
        int nc = 0;
        for (int i = 1; i <= n && nc < sim::kMaxChoiceAlts; ++i) {
            const int c = (active_channel_ + i + n) % n;
            if (!channels_[c].queue.empty()) {
                cands[nc] = c;
                actors[nc] = c;
                ++nc;
            }
        }
        if (nc == 1) {
            pick = cands[0];
        } else if (nc > 1) {
            const int sel =
                chooser->choose(sim::ChoiceKind::GpuChannel, actors, nc);
            JETSIM_ASSERT(sel >= 0 && sel < nc);
            pick = cands[sel];
        }
    } else {
        for (int i = 1; i <= n; ++i) {
            const int c = (active_channel_ + i + n) % n;
            if (!channels_[c].queue.empty()) {
                pick = c;
                break;
            }
        }
    }
    if (pick < 0) {
        publishIdleIfQuiet();
        return;
    }

    sim::Tick pen = 0;
    if (pick != active_channel_) {
        if (active_channel_ >= 0) {
            pen = rt.channel_switch;
            ++channel_switches_;
        }
        active_channel_ = pick;
        quantum_start_ = eq_.now() + pen;
    } else if (eq_.now() - quantum_start_ >= rt.gpu_quantum) {
        // Sole runnable channel keeps the GPU; restart its quantum.
        quantum_start_ = eq_.now();
    }

    auto &ch = channels_[pick];
    const KernelDesc *k = ch.queue.front().desc;
    const sim::Tick submit_tick = ch.queue.front().submit;
    ch.queue.pop_front();

    const KernelTiming timing =
        cost_.timing(*k, board_.gpuFreqFrac(), &jitter_);
    // Profiler intrusion surfaces as serialisation *between* kernels
    // (driver-side bookkeeping): the GPU idles for the gap, so the
    // in-kernel utilisation counters stay untouched while throughput
    // drops — matching how Nsight perturbs real runs.
    const sim::Tick start = eq_.now() + pen + extra_overhead_;
    const sim::Tick end = start + timing.duration;

    busy_ = true;

    // The in-flight record lives on the engine, where both timers'
    // targets read it (busy_ serialises the time-mux path).
    inflight_rec_.channel = pick;
    inflight_rec_.desc = k;
    inflight_rec_.submit = submit_tick;
    inflight_rec_.start = start;
    inflight_rec_.end = end;
    inflight_rec_.timing = timing;

    if (start > eq_.now()) {
        // Channel switches keep warps resident (SM-active, nothing
        // issued); pure instrumentation gaps leave the GPU idle so
        // they never pollute the sampled counters.
        if (pen > 0)
            board_.setGpuState(true, 1.0, 0.0, 0.0, 0.0);
        else
            board_.setGpuState(false, 0, 0, 0, 0);
        eq_.arm(start_timer_, start);
    } else {
        board_.setGpuState(true, timing.sm_active, timing.issue_slot,
                           timing.tc_util, timing.bw_util);
    }

    eq_.arm(finish_timer_, end);
}

JETSIM_HOT void
GpuEngine::startMux()
{
    const KernelTiming &t = inflight_rec_.timing;
    board_.setGpuState(true, t.sm_active, t.issue_slot, t.tc_util,
                       t.bw_util);
}

JETSIM_HOT void
GpuEngine::finishMux()
{
    // Exactly one kernel may occupy the time-multiplexed GPU; a
    // second completion without a matching start means occupancy
    // overlapped somewhere.
    JETSIM_CHECK(busy_, check::Severity::Error,
                 check::Invariant::StreamHazard, kComponent, eq_.now(),
                 "kernel completion on channel %d without exclusive "
                 "occupancy (overlap or double finish)",
                 inflight_rec_.channel);
    ++kernels_executed_;
    busy_ = false;
    // Copy the in-flight record out first: the completion may submit,
    // which starts the next kernel and overwrites the member. No idle
    // publish here: scheduleNext, nested in the completion or below,
    // publishes the GPU's state at this tick either way.
    const KernelRecord rec = inflight_rec_;
    complete(rec);
    scheduleNext();
}

// ------------------------------------------------------ spatial (MPS) path

void
GpuEngine::spatialStart(int channel)
{
    auto &ch = channels_[channel];
    JETSIM_ASSERT(!ch.executing && !ch.queue.empty());

    spatialAdvance();

    Exec e;
    e.channel = channel;
    e.desc = ch.queue.front().desc;
    e.submit = ch.queue.front().submit;
    ch.queue.pop_front();

    e.start = eq_.now();
    e.timing = cost_.timing(*e.desc, board_.gpuFreqFrac(), &jitter_);
    e.timing.duration += extra_overhead_;
    e.remaining_ns = static_cast<double>(e.timing.duration);
    ch.executing = true;

    execs_.push_back(std::move(e));
    // Inside spatialComplete, its close re-arms and publishes once for
    // every kernel started meanwhile.
    if (!spatial_completing_) {
        spatialReschedule();
        spatialPublish();
    }
}

void
GpuEngine::spatialAdvance()
{
    const sim::Tick now = eq_.now();
    const double elapsed = static_cast<double>(now - last_advance_);
    if (!execs_.empty() && elapsed > 0) {
        const double share = 1.0 / static_cast<double>(execs_.size());
        for (auto &e : execs_)
            e.remaining_ns = std::max(0.0, e.remaining_ns -
                                               elapsed * share);
    }
    last_advance_ = now;
}

void
GpuEngine::spatialReschedule()
{
    eq_.disarm(spatial_timer_);
    if (execs_.empty())
        return; // the spatialPublish that follows publishes idle
    double min_rem = execs_.front().remaining_ns;
    for (const auto &e : execs_)
        min_rem = std::min(min_rem, e.remaining_ns);
    const double n = static_cast<double>(execs_.size());
    const auto delay =
        static_cast<sim::Tick>(std::ceil(min_rem * n)) + 1;
    eq_.armIn(spatial_timer_, delay);
}

void
GpuEngine::spatialComplete()
{
    spatial_completing_ = true;
    spatialAdvance();

    // Collect everything that finished at this instant into the
    // reused member scratch (no per-fire allocation).
    auto &finished = finished_scratch_;
    finished.clear();
    for (auto it = execs_.begin(); it != execs_.end();) {
        if (it->remaining_ns <= 1.0) {
            finished.push_back(std::move(*it));
            it = execs_.erase(it);
        } else {
            ++it;
        }
    }
    for (auto &e : finished)
        channels_[e.channel].executing = false;

    for (auto &e : finished) {
        ++kernels_executed_;
        KernelRecord rec;
        rec.channel = e.channel;
        rec.desc = e.desc;
        rec.submit = e.submit;
        rec.start = e.start;
        rec.end = eq_.now();
        rec.timing = e.timing;
        complete(rec);
    }

    // Channels with queued work (from callbacks or earlier
    // submissions) start their next kernel.
    for (std::size_t c = 0; c < channels_.size(); ++c)
        if (!channels_[c].executing && !channels_[c].queue.empty())
            spatialStart(static_cast<int>(c));

    spatial_completing_ = false;
    spatialReschedule();
    spatialPublish();
}

void
GpuEngine::spatialPublish()
{
    if (execs_.empty()) {
        publishIdleIfQuiet();
        return;
    }
    double sm = 0, issue = 0, tc = 0, bw = 0;
    for (const auto &e : execs_) {
        sm += e.timing.sm_active;
        issue += e.timing.issue_slot;
        tc += e.timing.tc_util;
        bw += e.timing.bw_util;
    }
    board_.setGpuState(true, std::min(1.0, sm), std::min(0.85, issue),
                       std::min(0.99, tc), std::min(1.0, bw));
}

} // namespace jetsim::gpu
