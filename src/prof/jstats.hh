/**
 * @file
 * jetson-stats analogue: the phase-1 lightweight sampler.
 *
 * Periodically records board power, GPU utilisation and memory usage
 * with zero modelled intrusion — the paper's phase 1 keeps the
 * inference loop unaffected and reads these three signals.
 */

#ifndef JETSIM_PROF_JSTATS_HH
#define JETSIM_PROF_JSTATS_HH

#include <vector>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "soc/board.hh"

namespace jetsim::prof {

/** Periodic low-overhead sampler of SoC-level signals. */
class JStatsSampler
{
  public:
    /**
     * @param board    the device to observe
     * @param interval sampling period (jetson-stats defaults to
     *        sub-second polling; 200 ms keeps series compact)
     */
    explicit JStatsSampler(soc::Board &board,
                           sim::Tick interval = sim::msec(200));

    /** Begin sampling; idempotent. */
    void start();

    /** Stop sampling; call it while the board's queue lives. */
    void stop();

    /** Drop collected samples (e.g. after warm-up). */
    void reset();

    /** One polled record. */
    struct Sample
    {
        sim::Tick t;
        double power_w;      ///< average over the last interval
        double gpu_util_pct; ///< busy fraction over the interval
        double mem_pct;      ///< instantaneous memory usage
    };

    const std::vector<Sample> &samples() const { return samples_; }

    double avgPowerW() const { return power_.mean(); }
    double maxPowerW() const { return power_.max(); }
    double avgGpuUtilPct() const { return gpu_util_.mean(); }
    double peakMemPct() const { return mem_.max(); }

  private:
    void tick();

    soc::Board &board_;
    sim::Tick interval_;
    sim::EventQueue::Timer tick_timer_; ///< target: tick()

    double last_power_integral_ = 0.0;
    double last_busy_integral_ = 0.0;
    sim::Tick last_tick_ = 0;

    std::vector<Sample> samples_;
    sim::Accumulator power_;
    sim::Accumulator gpu_util_;
    sim::Accumulator mem_;
};

} // namespace jetsim::prof

#endif // JETSIM_PROF_JSTATS_HH
