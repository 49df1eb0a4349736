#include "prof/nsight.hh"

namespace jetsim::prof {

NsightTracer::NsightTracer(soc::Board &board, gpu::GpuEngine &engine,
                           sim::Tick counter_interval)
    : board_(board), engine_(engine), interval_(counter_interval),
      sample_timer_(
          [](void *self) {
              static_cast<NsightTracer *>(self)->sampleCounters();
          },
          this, sim::EventQueue::kPriSample)
{
}

NsightTracer::~NsightTracer()
{
    detach();
}

void
NsightTracer::attach()
{
    if (sub_)
        return;

    sub_ = engine_.subscribe([this](const gpu::KernelRecord &rec) {
        ++kernel_count_;
        duration_.sample(static_cast<double>(rec.end - rec.start));
    });

    engine_.setExtraKernelOverhead(kPerKernelOverhead);
    board_.setLaunchOverheadFactor(kLaunchOverheadFactor);

    board_.eq().armIn(sample_timer_, interval_);
}

void
NsightTracer::detach()
{
    if (!sub_)
        return;
    sub_.reset();
    engine_.setExtraKernelOverhead(0);
    board_.setLaunchOverheadFactor(1.0);
    board_.eq().disarm(sample_timer_);
}

void
NsightTracer::reset()
{
    duration_.reset();
    kernel_count_ = 0;
    sm_active_ = Cdf();
    issue_slot_ = Cdf();
    tc_util_ = Cdf();
}

void
NsightTracer::sampleCounters()
{
    const auto &a = board_.activity();
    if (a.gpu_busy) {
        sm_active_.add(100.0 * a.sm_active);
        issue_slot_.add(100.0 * a.issue_slot);
        tc_util_.add(100.0 * a.tc_util);
    }

    board_.eq().armIn(sample_timer_, interval_);
}

} // namespace jetsim::prof
