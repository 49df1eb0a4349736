#include "soc/board.hh"

#include <algorithm>
#include <cmath>

#include "check/check.hh"

namespace jetsim::soc {

namespace {

constexpr const char *kComponent = "soc.board";

/** Clamp a utilisation fraction after reporting out-of-range input. */
double
sanitizeFrac(double v)
{
    if (!std::isfinite(v))
        return 0.0;
    return std::clamp(v, 0.0, 1.0);
}

/**
 * The largest power the coefficient model can produce: every unit
 * active at full utilisation and maximum frequency. Anything above
 * this (plus rounding slack) is a model bug, not throttling lag.
 */
double
maxPlausibleWatts(const DeviceSpec &spec)
{
    const auto &p = spec.power;
    return p.idle_w + p.cpu_core_w * spec.bigCores() +
           p.cpu_little_w * spec.littleCores() + p.gpu_base_w +
           p.sm_w + p.tc_w + p.dram_w;
}

} // namespace

Board::Board(DeviceSpec spec, sim::EventQueue &eq, std::uint64_t seed)
    : spec_(std::move(spec)), big_cores_(spec_.bigCores()),
      little_cores_(spec_.littleCores()),
      max_plausible_w_(maxPlausibleWatts(spec_)), eq_(eq),
      rng_(seed ^ sim::hashLabel(spec_.name)),
      memory_(spec_.memory.total, spec_.memory.os_reserved),
      power_model_(spec_.power),
      governor_(spec_, eq, [this] { return powerW(); }),
      power_tw_(eq.now(), power_model_.watts(activity_, 1.0))
{
}

void
Board::setCpuActive(int big, int little)
{
    JETSIM_CHECK(big >= 0 && big <= big_cores_ && little >= 0 &&
                     little <= little_cores_,
                 check::Severity::Error,
                 check::Invariant::Plausibility, kComponent, eq_.now(),
                 "active core counts (%d big, %d little) outside the "
                 "%d/%d the board has",
                 big, little, big_cores_, little_cores_);
    activity_.cpu_active_big = std::clamp(big, 0, big_cores_);
    activity_.cpu_active_little = std::clamp(little, 0, little_cores_);
    refresh();
}

void
Board::setGpuState(bool busy, double sm_active, double issue_slot,
                   double tc_util, double bw_util)
{
    const auto in_range = [](double v) {
        return std::isfinite(v) && v >= 0.0 && v <= 1.0 + 1e-9;
    };
    JETSIM_CHECK(!busy || (in_range(sm_active) && in_range(issue_slot) &&
                           in_range(tc_util) && in_range(bw_util)),
                 check::Severity::Error,
                 check::Invariant::Plausibility, kComponent, eq_.now(),
                 "GPU utilisation outside [0,1] or non-finite "
                 "(sm=%g issue=%g tc=%g bw=%g)",
                 sm_active, issue_slot, tc_util, bw_util);

    activity_.gpu_busy = busy;
    activity_.sm_active = busy ? sanitizeFrac(sm_active) : 0.0;
    activity_.issue_slot = busy ? sanitizeFrac(issue_slot) : 0.0;
    activity_.tc_util = busy ? sanitizeFrac(tc_util) : 0.0;
    activity_.bw_util = busy ? sanitizeFrac(bw_util) : 0.0;

    const sim::Tick now = eq_.now();
    gpu_busy_tw_.set(now, busy ? 1.0 : 0.0);
    refresh();
}

double
Board::powerW() const
{
    return power_model_.watts(activity_, governor_.freqFrac());
}

void
Board::refresh()
{
    const double p = powerW();
    JETSIM_CHECK(std::isfinite(p) && p >= 0.0 &&
                     p <= max_plausible_w_ + 0.5,
                 check::Severity::Error,
                 check::Invariant::Plausibility, kComponent, eq_.now(),
                 "implausible board power %g W (max plausible %g W)",
                 p, max_plausible_w_);
    power_tw_.set(eq_.now(), p);
}

} // namespace jetsim::soc
