#include "soc/dvfs.hh"

#include <algorithm>

#include "check/check.hh"
#include "sim/logging.hh"

namespace jetsim::soc {

namespace {

/** Thermal RC constants: heating per Watt and cooling per degree. */
constexpr double kHeatPerWatt = 0.35;   // degC/s per W above idle
constexpr double kCoolPerDeg = 0.055;   // 1/s toward ambient

} // namespace

DvfsGovernor::DvfsGovernor(const DeviceSpec &spec, sim::EventQueue &eq,
                           PowerFn power_fn)
    : gpu_(spec.gpu), power_(spec.power), eq_(eq),
      power_fn_(std::move(power_fn)),
      temp_c_(spec.power.ambient_temp_c),
      tick_timer_(
          [](void *self) { static_cast<DvfsGovernor *>(self)->tick(); },
          this)
{
    JETSIM_ASSERT(gpu_.dvfs_levels >= 2);
    setLevel(gpu_.dvfs_levels - 1);
}

void
DvfsGovernor::start()
{
    if (!tick_timer_.armed())
        eq_.armIn(tick_timer_, kPeriod);
}

void
DvfsGovernor::setEnabled(bool enabled)
{
    enabled_ = enabled;
    if (!enabled_)
        setLevel(gpu_.dvfs_levels - 1);
}

double
DvfsGovernor::levelGhz(const GpuSpec &g, int level)
{
    const double step = (g.max_freq_ghz - g.min_freq_ghz) /
                        static_cast<double>(g.dvfs_levels - 1);
    return g.min_freq_ghz + step * level;
}

double
DvfsGovernor::levelFreqFrac(const GpuSpec &g, int level)
{
    // The level arithmetic can land a hair above max_freq_ghz in
    // floating point; clamp so consumers can rely on (0, 1].
    return std::min(1.0, levelGhz(g, level) / g.max_freq_ghz);
}

void
DvfsGovernor::setLevel(int level)
{
    level_ = level;
    freq_frac_ = levelFreqFrac(gpu_, level_);
}

double
DvfsGovernor::freqGhz() const
{
    return levelGhz(gpu_, level_);
}

void
DvfsGovernor::tick()
{
    const double p = power_fn_();

    // Exponential smoothing approximates the board's averaging sensor.
    power_ema_ = power_ema_ == 0.0 ? p : 0.6 * power_ema_ + 0.4 * p;

    // First-order thermal integration over the control period.
    const double dt = sim::toSec(kPeriod);
    temp_c_ += dt * (kHeatPerWatt * std::max(0.0, p - power_.idle_w)
                     - kCoolPerDeg * (temp_c_ - power_.ambient_temp_c));

    if (enabled_) {
        const double cap = power_.cap_w;
        const bool hot = temp_c_ > power_.throttle_temp_c;
        if (power_ema_ > cap || hot) {
            if (level_ > 0) {
                setLevel(level_ - 1);
                ++throttle_events_;
            }
        } else if (power_ema_ < 0.88 * cap &&
                   temp_c_ < power_.throttle_temp_c - 5.0) {
            setLevel(std::min(level_ + 1, gpu_.dvfs_levels - 1));
        }
    }

    // JetSan: the clock must stay inside the device's DVFS table.
    JETSIM_CHECK(level_ >= 0 && level_ < gpu_.dvfs_levels &&
                     freqGhz() >= gpu_.min_freq_ghz - 1e-9 &&
                     freqGhz() <= gpu_.max_freq_ghz + 1e-9,
                 check::Severity::Error,
                 check::Invariant::Plausibility, "soc.dvfs", eq_.now(),
                 "GPU clock outside the DVFS table (level=%d of %d, "
                 "%.3f GHz not in [%.3f, %.3f])",
                 level_, gpu_.dvfs_levels, freqGhz(),
                 gpu_.min_freq_ghz, gpu_.max_freq_ghz);

    eq_.armIn(tick_timer_, kPeriod);
}

} // namespace jetsim::soc
