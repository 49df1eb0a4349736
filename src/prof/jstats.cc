#include "prof/jstats.hh"

namespace jetsim::prof {

JStatsSampler::JStatsSampler(soc::Board &board, sim::Tick interval)
    : board_(board), interval_(interval),
      tick_timer_(
          [](void *self) { static_cast<JStatsSampler *>(self)->tick(); },
          this, sim::EventQueue::kPriSample)
{
}

void
JStatsSampler::start()
{
    if (tick_timer_.armed())
        return;
    last_tick_ = board_.eq().now();
    last_power_integral_ = board_.powerTw().integral(last_tick_);
    last_busy_integral_ = board_.gpuBusyTw().integral(last_tick_);
    board_.eq().armIn(tick_timer_, interval_);
}

void
JStatsSampler::stop()
{
    board_.eq().disarm(tick_timer_);
}

void
JStatsSampler::reset()
{
    samples_.clear();
    power_.reset();
    gpu_util_.reset();
    mem_.reset();
    last_tick_ = board_.eq().now();
    last_power_integral_ = board_.powerTw().integral(last_tick_);
    last_busy_integral_ = board_.gpuBusyTw().integral(last_tick_);
}

void
JStatsSampler::tick()
{
    const sim::Tick now = board_.eq().now();
    const double span = static_cast<double>(now - last_tick_);

    Sample s;
    s.t = now;
    const double p_int = board_.powerTw().integral(now);
    const double b_int = board_.gpuBusyTw().integral(now);
    s.power_w = span > 0 ? (p_int - last_power_integral_) / span
                         : board_.powerW();
    s.gpu_util_pct =
        span > 0 ? 100.0 * (b_int - last_busy_integral_) / span : 0.0;
    s.mem_pct = board_.memory().usagePercent();

    last_tick_ = now;
    last_power_integral_ = p_int;
    last_busy_integral_ = b_int;

    samples_.push_back(s);
    power_.sample(s.power_w);
    gpu_util_.sample(s.gpu_util_pct);
    mem_.sample(s.mem_pct);

    board_.eq().armIn(tick_timer_, interval_);
}

} // namespace jetsim::prof
