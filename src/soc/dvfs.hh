/**
 * @file
 * Dynamic voltage and frequency scaling (DVFS) governor.
 *
 * Jetson boards run a power-mode budget (7 W Orin Nano / 5 W Nano in
 * the paper's experiments). The governor polls board power on a fixed
 * period, integrates a first-order thermal model, and steps the GPU
 * clock through the device's discrete frequency levels to keep the
 * rail under the cap — reducing throughput instead of exceeding the
 * budget, exactly as the paper describes (S6.2.2).
 */

#ifndef JETSIM_SOC_DVFS_HH
#define JETSIM_SOC_DVFS_HH

#include <functional>

#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "soc/device_spec.hh"

namespace jetsim::soc {

/** Closed-loop frequency governor with a simple thermal model. */
class DvfsGovernor
{
  public:
    /** Returns the board's current instantaneous power in Watts. */
    using PowerFn = std::function<double()>;

    DvfsGovernor(const DeviceSpec &spec, sim::EventQueue &eq,
                 PowerFn power_fn);

    /** Begin periodic control; idempotent. */
    void start();

    /**
     * Enable/disable throttling (ablation A2). Disabled, the clock
     * pins to the maximum level and the cap is ignored.
     */
    void setEnabled(bool enabled);

    /** Current GPU frequency as a fraction of the maximum. */
    double freqFrac() const { return freq_frac_; }

    /** Current GPU frequency in GHz. */
    double freqGhz() const;

    /** Current discrete level, 0 (min) .. levels-1 (max). */
    int level() const { return level_; }

    /** Modelled die temperature in deg C. */
    double tempC() const { return temp_c_; }

    /** Number of down-clock decisions taken. */
    std::uint64_t throttleEvents() const { return throttle_events_; }

    /** Control period (public for tests). */
    static constexpr sim::Tick kPeriod = sim::msec(10);

    /** GPU frequency in GHz at DVFS @p level of @p g. */
    static double levelGhz(const GpuSpec &g, int level);

    /** levelGhz() over the maximum, clamped to at most 1: what
     * freqFrac() reads at @p level. */
    static double levelFreqFrac(const GpuSpec &g, int level);

  private:
    void tick();

    /** Move to @p level and recompute freq_frac_. */
    void setLevel(int level);

    const GpuSpec gpu_;
    const PowerSpec power_;
    sim::EventQueue &eq_;
    PowerFn power_fn_;
    bool enabled_ = true;
    int level_ = 0;
    double freq_frac_ = 0.0; ///< freqFrac() at level_, set by setLevel
    double temp_c_;
    double power_ema_ = 0.0;
    std::uint64_t throttle_events_ = 0;
    sim::EventQueue::Timer tick_timer_; ///< target: tick()
};

} // namespace jetsim::soc

#endif // JETSIM_SOC_DVFS_HH
