#include "trt/execution_context.hh"

#include "sim/logging.hh"

namespace jetsim::trt {

ExecutionContext::ExecutionContext(const Engine &engine,
                                   cuda::Stream &stream,
                                   cpu::Thread &thread,
                                   soc::Board &board)
    : engine_(engine), stream_(stream), thread_(thread), board_(board),
      rng_(board.rng().fork("ec-" + engine.model())),
      launch_cost_(
          static_cast<double>(board.spec().runtime.launch_cpu_cost),
          kLaunchCostCv)
{
    JETSIM_ASSERT(!engine_.kernels().empty());
}

void
ExecutionContext::enqueue(EcRecord &rec, DoneFn done, DoneFn cpu_done)
{
    rec = EcRecord{};
    rec.enqueue_begin = board_.eq().now();
    rec.kernels = static_cast<int>(engine_.kernels().size());
    inflight_.push_back(Pending{&rec, std::move(done)});
    cpu_done_ = std::move(cpu_done);
    launchNext(0);
}

void
ExecutionContext::launchNext(std::size_t i)
{
    auto &eq = board_.eq();
    EcRecord &rec = *inflight_.back().rec;

    if (i == engine_.kernels().size()) {
        rec.enqueue_end = eq.now();
        // Wait for everything this EC submitted (stream is FIFO and
        // the caller serialises enqueues, so the tail is ours).
        stream_.onComplete(stream_.submitted(), [this] { finishFront(); });
        if (cpu_done_) {
            DoneFn cpu_done = std::move(cpu_done_);
            cpu_done();
        }
        return;
    }

    const sim::Tick t0 = eq.now();
    const double mean =
        static_cast<double>(board_.spec().runtime.launch_cpu_cost) *
        board_.launchOverheadFactor();
    if (mean != launch_cost_.mean())
        launch_cost_ = sim::Lognormal(mean, kLaunchCostCv);
    // Bounded draw (sim::kLognormalEnvelope): launch-API worst cases
    // are provable, not just unlikely (src/absint).
    const sim::Tick cost = rng_.lognormalTick(
        launch_cost_,
        [this](double v) { return launch_cost_.boundedTick(v); });
    thread_.exec(cost, [this, i, t0] {
        stream_.launch(&engine_.kernels()[i]);
        inflight_.back().rec->launch_api_total += board_.eq().now() - t0;
        launchNext(i + 1);
    });
}

void
ExecutionContext::finishFront()
{
    Pending &p = inflight_.front();
    p.rec->gpu_done = board_.eq().now();
    DoneFn done = std::move(p.done);
    inflight_.pop_front();
    if (done)
        done();
}

} // namespace jetsim::trt
