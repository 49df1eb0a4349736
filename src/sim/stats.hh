/**
 * @file
 * Lightweight statistics primitives shared across the simulator.
 *
 * `Accumulator` tracks a streaming count, mean, minimum and maximum;
 * `TimeWeighted` integrates a piecewise-constant signal over
 * simulated time (used for utilisation-style metrics).
 */

#ifndef JETSIM_SIM_STATS_HH
#define JETSIM_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace jetsim::sim {

/** Streaming count/mean/min/max over a sequence of samples. */
class Accumulator
{
  public:
    /** Record one sample. */
    void
    sample(double x)
    {
        ++count_;
        mean_ += (x - mean_) / static_cast<double>(count_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Discard all samples. */
    void reset() { *this = Accumulator(); }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Time integral of a piecewise-constant signal. Feed level changes
 * with `set(now, level)`; `average(now)` yields the time-weighted mean
 * since construction.
 */
class TimeWeighted
{
  public:
    explicit TimeWeighted(Tick start = 0, double level = 0.0)
        : start_(start), last_(start), level_(level)
    {}

    /** Change the signal level at time @p now. */
    void
    set(Tick now, double level)
    {
        integral_ += level_ * static_cast<double>(now - last_);
        last_ = now;
        level_ = level;
    }

    /** Integral of the signal from construction to @p now. */
    double
    integral(Tick now) const
    {
        return integral_ + level_ * static_cast<double>(now - last_);
    }

    /** Time-weighted average level over [start, now]. */
    double
    average(Tick now) const
    {
        const double span = static_cast<double>(now - start_);
        return span > 0.0 ? integral(now) / span : level_;
    }

  private:
    Tick start_;
    Tick last_;
    double level_;
    double integral_ = 0.0;
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_STATS_HH
