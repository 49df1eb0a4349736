#include "cuda/stream.hh"

#include "sim/logging.hh"

namespace jetsim::cuda {

Stream::Stream(gpu::GpuEngine &engine, const std::string &name)
    : engine_(engine),
      channel_(engine.createChannel(name, [this] { kernelDone(); }))
{
}

Stream::~Stream()
{
    engine_.destroyChannel(channel_);
}

void
Stream::launch(const gpu::KernelDesc *k)
{
    ++submitted_;
    engine_.submit(channel_, k);
}

void
Stream::kernelDone()
{
    ++completed_;
    while (!waiters_.empty() && waiters_.front().target <= completed_) {
        auto cb = std::move(waiters_.front().cb);
        waiters_.pop_front();
        cb();
    }
}

void
Stream::onComplete(std::uint64_t target, sim::InlineFn cb)
{
    if (completed_ >= target) {
        cb();
        return;
    }
    JETSIM_ASSERT(target <= submitted_);
    // Targets arrive in nondecreasing order (stream FIFO discipline).
    JETSIM_ASSERT(waiters_.empty() || waiters_.back().target <= target);
    waiters_.push_back(Waiter{target, std::move(cb)});
}

} // namespace jetsim::cuda
