/**
 * @file
 * A simulated board: the composition root for one device.
 *
 * Board owns the unified memory pool, power model, DVFS governor and
 * the shared Activity snapshot. The CPU and GPU models (which live in
 * higher-level modules) publish their activity through the setters
 * here; samplers and the governor read the derived signals.
 */

#ifndef JETSIM_SOC_BOARD_HH
#define JETSIM_SOC_BOARD_HH

#include <memory>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "soc/device_spec.hh"
#include "soc/dvfs.hh"
#include "soc/power.hh"
#include "soc/unified_memory.hh"

namespace jetsim::soc {

/**
 * One device under simulation. Non-copyable; components hold
 * references for the lifetime of a run.
 */
class Board
{
  public:
    Board(DeviceSpec spec, sim::EventQueue &eq,
          std::uint64_t seed = 0x5eed);

    const DeviceSpec &spec() const { return spec_; }
    sim::EventQueue &eq() { return eq_; }
    UnifiedMemory &memory() { return memory_; }
    DvfsGovernor &governor() { return governor_; }
    sim::Rng &rng() { return rng_; }

    /** Start periodic services (the DVFS governor). */
    void start() { governor_.start(); }

    /** @name Activity publication (called by cpu/gpu models)
     * @{ */
    void setCpuActive(int big, int little);
    void setGpuState(bool busy, double sm_active, double issue_slot,
                     double tc_util, double bw_util);
    /** @} */

    /** Latest activity snapshot. */
    const Activity &activity() const { return activity_; }

    /** Instantaneous board power in Watts. */
    double powerW() const;

    /** Current GPU frequency fraction (delegates to the governor). */
    double gpuFreqFrac() const { return governor_.freqFrac(); }

    /** @name Profiler intrusion
     * Attached tracers inflate CPU-side launch API costs by this
     * factor (1.0 = no profiler).
     * @{ */
    void setLaunchOverheadFactor(double f) { launch_overhead_ = f; }
    double launchOverheadFactor() const { return launch_overhead_; }
    /** @} */

    /** @name Time-weighted signals for samplers
     * The sampler computes windowed averages from these integrals.
     * @{ */
    const sim::TimeWeighted &powerTw() const { return power_tw_; }
    const sim::TimeWeighted &gpuBusyTw() const { return gpu_busy_tw_; }
    /** @} */

  private:
    /** Recompute power after any activity change. */
    void refresh();

    const DeviceSpec spec_;
    // Per-event constants of the spec, computed once.
    const int big_cores_;
    const int little_cores_;
    const double max_plausible_w_; ///< see maxPlausibleWatts()
    sim::EventQueue &eq_;
    sim::Rng rng_;
    UnifiedMemory memory_;
    PowerModel power_model_;
    DvfsGovernor governor_;
    Activity activity_;
    double launch_overhead_ = 1.0;

    sim::TimeWeighted power_tw_;
    sim::TimeWeighted gpu_busy_tw_;
};

} // namespace jetsim::soc

#endif // JETSIM_SOC_BOARD_HH
