/**
 * @file
 * Deterministic random-number generation.
 *
 * Every stochastic element of the simulator draws from an Rng that is
 * seeded from the experiment specification, so a given spec always
 * reproduces bit-identical results. The generator is xoshiro256**,
 * seeded through SplitMix64 (the reference seeding procedure).
 */

#ifndef JETSIM_SIM_RNG_HH
#define JETSIM_SIM_RNG_HH

#include <cstdint>
#include <string_view>

namespace jetsim::sim {

/**
 * Envelope for bounded lognormal jitter draws: lognormalBounded()
 * never returns outside [mean / kLognormalEnvelope,
 * mean * kLognormalEnvelope]. The clamp binds with probability
 * < 1e-9 per draw at the coefficients of variation the simulator
 * uses (cv <= 0.35), so sampled behaviour is unchanged in practice —
 * but it turns the distribution's unbounded tail into a *proven*
 * envelope the static bound analyzer (src/absint) builds sound
 * worst-case latencies from.
 */
inline constexpr double kLognormalEnvelope = 8.0;

/**
 * A log-normal distribution given by the *target* mean and the
 * coefficient of variation of the resulting distribution — the
 * natural parameterisation for latency jitter. The log-space
 * parameters are computed once, here, so a draw from a distribution
 * used many times costs one normal variate and one exp.
 */
class Lognormal
{
  public:
    Lognormal(double mean, double cv);

    double mean() const { return mean_; }

  private:
    friend class Rng;

    double mean_;
    double cv_;
    double mu_ = 0.0;    ///< mean of the underlying normal
    double sigma_ = 0.0; ///< standard deviation of the underlying normal
};

/**
 * Deterministic pseudo-random generator (xoshiro256**).
 *
 * Cheap to copy; each component typically owns a fork()ed child so
 * that adding draws in one component never perturbs another.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal variate (Box-Muller, one value per call). */
    double normal();

    /** Log-normal variate from @p d (see Lognormal). */
    double lognormal(const Lognormal &d);

    /**
     * lognormal() clamped to the kLognormalEnvelope band around the
     * mean. All CPU-side latency draws in the simulator use this form
     * so worst cases are boundable (see src/absint).
     */
    double lognormalBounded(const Lognormal &d);

    /**
     * Deterministically derive an independent child generator. The
     * label participates in the derivation so distinct subsystems
     * seeded from the same parent do not correlate.
     */
    Rng fork(std::string_view label);

  private:
    std::uint64_t s_[4];
};

/** Stable 64-bit FNV-1a hash of a string, used for seed derivation. */
std::uint64_t hashLabel(std::string_view label);

} // namespace jetsim::sim

#endif // JETSIM_SIM_RNG_HH
