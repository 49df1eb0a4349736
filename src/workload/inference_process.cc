#include "workload/inference_process.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace jetsim::workload {

InferenceProcess::InferenceProcess(soc::Board &board,
                                   cpu::OsScheduler &sched,
                                   gpu::GpuEngine &gpu,
                                   const graph::Network &net,
                                   ProcessConfig cfg)
    : board_(board), gpu_(gpu), cfg_(std::move(cfg)),
      // One RNG stream name per request source ("proc-" closed,
      // "serve-" open): the recorded golden digests depend on it.
      rng_(board.rng().fork((cfg_.arrival_rate ? "serve-" : "proc-") +
                            cfg_.name)),
      // Bounded draws: prep stays within the sim::kLognormalEnvelope
      // band, which is what src/absint's CPU-side upper bounds assume.
      prep_dist_(static_cast<double>(kPrepCost), kPrepCostCv),
      thread_(sched.createThread(cfg_.name, /*big=*/true)),
      engine_(trt::sharedEngine(board.spec(), net, cfg_.build))
{
    JETSIM_ASSERT(cfg_.arrival_rate.value_or(0.0) >= 0.0);
    JETSIM_ASSERT(cfg_.pre_enqueue >= 0);
    slots_.resize(static_cast<std::size_t>(1 + cfg_.pre_enqueue));
    if (openLoop())
        for (Slot &slot : slots_)
            slot.arrivals.reserve(
                static_cast<std::size_t>(cfg_.build.batch));
}

bool
InferenceProcess::deploy()
{
    JETSIM_ASSERT(!deployed_);

    auto &mem = board_.memory();
    runtime_mem_ = cuda::DeviceBuffer::tryAlloc(
        mem, cfg_.name, board_.spec().memory.process_runtime_overhead);
    if (!runtime_mem_)
        return false;
    engine_mem_ = cuda::DeviceBuffer::tryAlloc(mem, cfg_.name,
                                               engine_->deviceBytes());
    if (!engine_mem_) {
        runtime_mem_.reset();
        return false;
    }

    stream_.emplace(gpu_, cfg_.name);
    ctx_.emplace(*engine_, *stream_, *thread_, board_);
    deployed_ = true;
    return true;
}

void
InferenceProcess::start()
{
    JETSIM_ASSERT(deployed_);
    if (!openLoop())
        board_.eq().scheduleIn(cfg_.start_offset, [this] { kick(); });
    else if (*cfg_.arrival_rate > 0.0)
        scheduleArrival();
}

void
InferenceProcess::scheduleArrival()
{
    // Poisson process: exponential inter-arrival times.
    const double mean_ns = 1e9 / *cfg_.arrival_rate;
    double u = rng_.uniform();
    if (u < 1e-12)
        u = 1e-12;
    const auto gap =
        static_cast<sim::Tick>(-mean_ns * std::log(u)) + 1;
    board_.eq().scheduleIn(gap, [this] { onArrival(); });
}

void
InferenceProcess::onArrival()
{
    if (stopped_)
        return;
    scheduleArrival();
    injectArrival(board_.eq().now());
}

void
InferenceProcess::injectArrival(sim::Tick origin)
{
    JETSIM_ASSERT(openLoop());
    if (stopped_)
        return;
    JETSIM_ASSERT(deployed_);
    JETSIM_ASSERT(origin <= board_.eq().now());
    ++arrived_;
    // Queue the *origin* tick: the request's latency clock started at
    // the balancer, so the dispatch hop is part of what it waited.
    queue_.push_back(origin);
    max_queue_ = std::max(max_queue_, queue_.size());
    kick();
}

bool
InferenceProcess::hasWork() const
{
    if (cfg_.max_ecs != 0 && launched_ >= cfg_.max_ecs)
        return false;
    // A closed loop always has a batch ready; an open loop has work
    // while requests are queued, and drains them after a stop.
    return openLoop() ? !queue_.empty() : !stopped_;
}

void
InferenceProcess::kick()
{
    // A running cycle picks up new work by itself.
    if (cycling_ || !hasWork())
        return;
    cycling_ = true;
    prepAndEnqueue();
}

// The loop is trtexec's strict single-thread sequence:
//   prep -> enqueue EC_{i+1} -> [fill until depth reached] ->
//   sync EC_i -> prep -> enqueue EC_{i+2} -> sync EC_{i+1} -> ...
// Nothing else ever runs on the thread, so launch chains of distinct
// ECs never interleave (real ExecutionContexts are not re-entrant).

void
InferenceProcess::prepAndEnqueue()
{
    const sim::Tick prep = rng_.lognormalTick(
        prep_dist_, [this](double v) { return prep_dist_.boundedTick(v); });
    thread_->exec(prep, [this] { enqueueOne(); });
}

void
InferenceProcess::enqueueOne()
{
    // Counted here, in the enqueue thread's program order: the bound
    // cuts the loop at the same EC index in every interleaving.
    ++launched_;
    JETSIM_ASSERT(in_flight_ < slots_.size());
    Slot &slot = inFlight(in_flight_++);
    slot.gpu_done = false;
    // An open loop's EC carries up to `batch` queued requests (a
    // closed loop's queue is always empty).
    slot.arrivals.clear();
    const auto take = std::min(
        static_cast<std::size_t>(cfg_.build.batch), queue_.size());
    for (std::size_t i = 0; i < take; ++i) {
        slot.arrivals.push_back(queue_.front());
        queue_.pop_front();
    }
    ctx_->enqueue(slot.rec, [this] { ecDone(); }, [this] { next(); });
}

void
InferenceProcess::ecDone()
{
    // The stream completes ECs in enqueue order, so the one that
    // finished is the oldest in-flight EC not yet done.
    std::size_t i = 0;
    while (i < in_flight_ && inFlight(i).gpu_done)
        ++i;
    JETSIM_ASSERT(i < in_flight_);
    Slot &slot = inFlight(i);
    slot.gpu_done = true;
    recordEc(slot);
    if (sync_blocked_ && i == 0) {
        // The thread is blocked in cudaStreamSynchronize on this EC:
        // wake it (the wait is the paper's B_l).
        sync_blocked_ = false;
        thread_->exec(board_.spec().runtime.sync_cpu_cost,
                      [this] { syncReturn(); });
    }
}

void
InferenceProcess::next()
{
    // Fill the pipeline to 1 + pre_enqueue ECs while there is work,
    // then block on the oldest one; with nothing in flight, go idle.
    if (hasWork() && in_flight_ < slots_.size())
        prepAndEnqueue();
    else if (in_flight_ > 0)
        syncFront();
    else
        cycling_ = false;
}

void
InferenceProcess::syncFront()
{
    JETSIM_ASSERT(in_flight_ > 0);
    sync_begin_ = board_.eq().now();
    if (inFlight(0).gpu_done) {
        // Already complete: the sync call returns after its CPU cost.
        thread_->exec(board_.spec().runtime.sync_cpu_cost,
                      [this] { syncReturn(); });
    } else if (cfg_.spin_wait) {
        spinWait();
    } else {
        // Blocking sync: yield the core until the GPU signals.
        sync_blocked_ = true;
    }
}

void
InferenceProcess::spinWait()
{
    // Poll the stream in short bursts of CPU work. The burst keeps
    // the core busy, so with more processes than cores the OS
    // time-shares the spinners and completion detection is delayed
    // by scheduler waits (the paper's B_l). head_ cannot move while
    // the thread spins, so the flag stays the oldest EC's.
    thread_->spin(kSpinChunk, &inFlight(0).gpu_done,
                  [this] { syncReturn(); });
}

void
InferenceProcess::syncReturn()
{
    JETSIM_ASSERT(in_flight_ > 0);
    if (measuring_) {
        const sim::Tick now = board_.eq().now();
        sync_span_.sample(static_cast<double>(now - sync_begin_));
        const sim::Tick done = inFlight(0).rec.gpu_done;
        blocked_.sample(
            static_cast<double>(std::max<sim::Tick>(0, now - done)));
    }
    head_ = (head_ + 1) % slots_.size();
    --in_flight_;
    next();
}

void
InferenceProcess::recordEc(const Slot &slot)
{
    const sim::Tick now = board_.eq().now();
    const trt::EcRecord &rec = slot.rec;
    if (measuring_) {
        ++ecs_;
        ec_span_.sample(static_cast<double>(rec.span()));
        enqueue_span_.sample(
            static_cast<double>(rec.enqueue_end - rec.enqueue_begin));
        launch_api_.sample(static_cast<double>(rec.launch_api_total));
        if (last_ec_done_ != sim::kTickInvalid)
            ec_period_.sample(static_cast<double>(now - last_ec_done_));
        if (openLoop()) {
            images_ += slot.arrivals.size();
            for (const sim::Tick t : slot.arrivals)
                latency_cdf_.add(static_cast<double>(rec.gpu_done - t));
        } else {
            images_ += static_cast<std::uint64_t>(cfg_.build.batch);
            latency_cdf_.add(static_cast<double>(rec.span()));
        }
    }
    last_ec_done_ = now;
}

void
InferenceProcess::beginMeasurement()
{
    measuring_ = true;
    window_start_ = board_.eq().now();
    images_ = 0;
    ecs_ = 0;
    arrived_ = 0;
    max_queue_ = queue_.size();
    ec_span_.reset();
    ec_period_.reset();
    enqueue_span_.reset();
    launch_api_.reset();
    sync_span_.reset();
    blocked_.reset();
    latency_cdf_ = prof::Cdf();
    thread_->resetStats();
}

void
InferenceProcess::endMeasurement()
{
    measuring_ = false;
    window_end_ = board_.eq().now();
}

double
InferenceProcess::throughput() const
{
    const double span = sim::toSec(window_end_ - window_start_);
    return span > 0 ? static_cast<double>(images_) / span : 0.0;
}

} // namespace jetsim::workload
