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

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/types.hh"

namespace jetsim::sim {

/**
 * Envelope for bounded lognormal jitter draws: Lognormal::boundedTick
 * never maps a draw outside [mean / kLognormalEnvelope,
 * mean * kLognormalEnvelope]. The clamp binds with probability
 * < 1e-9 per draw at the coefficients of variation the simulator
 * uses (cv <= 0.35), so sampled behaviour is unchanged in practice —
 * but it turns the distribution's unbounded tail into a *proven*
 * envelope the static bound analyzer (src/absint) builds sound
 * worst-case latencies from.
 */
inline constexpr double kLognormalEnvelope = 8.0;

/**
 * Half-width of the relative bracket around a table-evaluated
 * lognormal draw (Lognormal::bracketTick). The kernels' worst-case
 * error is below 1e-11 (DESIGN.md §4, "Tick-exact draws"), so the
 * libm value of the same draw always lies inside the bracket.
 */
inline constexpr double kDrawBracket = 1e-9;

template <int Arity>
class DrawStream;

/**
 * A log-normal distribution given by the *target* mean and the
 * coefficient of variation of the resulting distribution — the
 * natural parameterisation for latency jitter. The log-space
 * parameters and exp(mu) are computed once, here, with libm, so a
 * draw from a distribution used many times costs one normal variate,
 * one exp and one multiply.
 */
class Lognormal
{
  public:
    Lognormal(double mean, double cv);

    double mean() const { return mean_; }

    /**
     * The Tick of draw @p v clamped into the kLognormalEnvelope band
     * around the mean: the map of every CPU-side latency draw, so
     * their worst cases are provable (see src/absint). Monotone
     * non-decreasing in @p v.
     */
    Tick boundedTick(double v) const
    {
        return static_cast<Tick>(std::clamp(
            v, mean_ / kLognormalEnvelope, mean_ * kLognormalEnvelope));
    }

    /**
     * The Tick of the draw whose exp(sigma * N) the table kernels put
     * at @p factor (draw_kernels::factor), when the bracket decides
     * it: v = exp(mu) * factor, and @p to_tick gives both ends of
     * [v * (1 - kDrawBracket), v * (1 + kDrawBracket)] the same Tick.
     * Then that Tick is the one the libm value inside the bracket
     * maps to, because @p to_tick is monotone. nullopt when the
     * bracket straddles a Tick or v is not a normal double far from
     * overflow (a factor of 0 marks a draw the kernels leave to
     * libm): the caller then maps libmValue() of the same uniforms.
     * @p to_tick is called on the lower, then the upper end.
     */
    template <class F>
    std::optional<Tick> bracketTick(double factor, F to_tick) const
    {
        const double v = exp_mu_ * factor;
        if (!(v > 1.0 / kValueRange && v < kValueRange))
            return std::nullopt;
        const Tick lo = to_tick(v * (1.0 - kDrawBracket));
        if (lo == to_tick(v * (1.0 + kDrawBracket)))
            return lo;
        return std::nullopt;
    }

    /** The draw from @p u1 and @p u2 as libm evaluates it: Box–
     * Muller's sqrt(-2 ln u1) * cos(2 pi u2), then exp(mu + sigma *
     * N). Out of line. */
    double libmValue(double u1, double u2) const;

  private:
    friend class Rng;
    template <int Arity>
    friend class DrawStream;

    /** bracketTick's values stay inside (1 / kValueRange,
     * kValueRange): normal doubles, whose products round to within an
     * ulp. */
    static constexpr double kValueRange = 0x1p1000;

    double mean_;
    double cv_;
    double mu_ = 0.0;     ///< mean of the underlying normal
    double sigma_ = 0.0;  ///< standard deviation of the underlying normal
    double exp_mu_ = 0.0; ///< exp(mu_), by libm
};

/** Lookup tables of the lognormalTick kernels, built at compile time
 * in rng.cc. */
namespace draw_tables {

/** ln: 1/c and -ln(1/c) for the centre c of each of 128 mantissa
 * intervals of [1, 2). */
struct LogEntry
{
    double invc;
    double logc;
};

/** cos and sin of 2*pi*j/256. */
struct CosEntry
{
    double cos;
    double sin;
};

extern const std::array<LogEntry, 128> kLog;
extern const std::array<CosEntry, 256> kCos2Pi;
/** 2^(j/64). */
extern const std::array<double, 64> kExp2;

} // namespace draw_tables

/**
 * The table kernels of the lognormal draws: each is inline and
 * branch-free, so the scalar draw (Rng::lognormalTick) inlines them
 * into its consumer and DrawStream's factor loop (draw_stream.cc),
 * which flattens them in, vectorizes them.
 */
namespace draw_kernels {

/** u1 at or above this is left to libm: it keeps sqrt(-2 ln u1) >=
 * 0.01, which bounds how far the ln kernel's absolute error grows
 * through the square root. */
inline constexpr double kFastU1Limit = 0.99995;
/** |sigma * N| at or above this is left to libm: fastExp's 2^k stays
 * a normal double. */
inline constexpr double kExpRange = 700.0;

inline constexpr double kLn2 = 0x1.62e42fefa39efp-1;
inline constexpr double kInvLn2x64 = 0x1.71547652b82fep6;
inline constexpr double kLn2Over64 = 0x1.62e42fefa39efp-7;
inline constexpr double kTwoPiOver256 = 0x1.921fb54442d18p-6;

/** ln(x) for x in [2^-53, 1): table interval plus a degree-4
 * polynomial in |r| <= 2^-8 (truncation <= 1.8e-13). */
inline double
fastLog(double x)
{
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const auto frac = bits & 0x000fffffffffffffULL;
    const draw_tables::LogEntry &e = draw_tables::kLog[frac >> 45];
    const double m = std::bit_cast<double>(frac | 0x3ff0000000000000ULL);
    // The exponent, exactly, from its bits: no integer conversion,
    // which the x86-64-v3 block loop could not vectorize.
    const double k =
        std::bit_cast<double>((bits >> 52) | 0x4330000000000000ULL) -
        (0x1p52 + 1023.0);
    const double r = m * e.invc - 1.0;
    const double r2 = r * r;
    // Terms paired (Estrin), not nested: the scalar draw's Tick waits
    // on this chain, so its depth is what a draw costs.
    return (k * kLn2 + e.logc + r) +
           r2 * ((-0.5 + r * (1.0 / 3.0)) + r2 * -0.25);
}

/** cos(2 pi u) for u in [0, 1): table angle plus degree-4/5
 * polynomials in the remainder, |d| <= pi/256 (truncation
 * <= 5e-15). */
inline double
fastCos2Pi(double u)
{
    const double x = u * 256.0; // exact
    const int j = static_cast<int>(x + 0.5);
    const double d = (x - j) * kTwoPiOver256;
    const double d2 = d * d;
    const double cd = 1.0 + d2 * (-0.5 + d2 * (1.0 / 24.0));
    const double sd = d * (1.0 + d2 * (-1.0 / 6.0 + d2 * (1.0 / 120.0)));
    const draw_tables::CosEntry &e = draw_tables::kCos2Pi[j & 255];
    return e.cos * cd - e.sin * sd;
}

/** exp(y) for |y| < kExpRange: 2^(n/64) from the table and the
 * exponent bits, times a degree-4 polynomial in |r| <= ln2/128
 * (truncation <= 4e-14). */
inline double
fastExp(double y)
{
    constexpr double kShift = 0x1.8p52; // rounds to an integer
    const double shifted = y * kInvLn2x64 + kShift;
    const double n = shifted - kShift;
    const double r = y - n * kLn2Over64;
    // n, exactly, from the shifted value's low mantissa bits.
    const auto ni = static_cast<std::int64_t>(
        std::bit_cast<std::uint64_t>(shifted) -
        std::bit_cast<std::uint64_t>(kShift));
    const double scale =
        draw_tables::kExp2[static_cast<std::size_t>(ni & 63)] *
        std::bit_cast<double>(static_cast<std::uint64_t>((ni >> 6) + 1023)
                              << 52);
    const double r2 = r * r;
    return ((1.0 + r) + r2 * ((0.5 + r * (1.0 / 6.0)) + r2 * (1.0 / 24.0))) *
           scale;
}

/**
 * exp(@p sigma * N) for Box–Muller's first variate N =
 * sqrt(-2 ln u1) * cos(2 pi u2), by the kernels above; 0 where they
 * do not apply and libm decides the draw: u1 is 0 or at least
 * kFastU1Limit, or |sigma * N| >= kExpRange. Every step is computed
 * for every input and selected at the end, with fastExp's argument
 * held in range, so a loop over it has no control flow.
 */
inline double
factor(double sigma, double u1, double u2)
{
    const double l = -2.0 * fastLog(u1);
    const double s = std::sqrt(l > 0.0 ? l : 0.0);
    const double y = sigma * (s * fastCos2Pi(u2));
    const bool fast = (u1 > 0.0) & (u1 < kFastU1Limit) &
                      (y > -kExpRange) & (y < kExpRange);
    const double e = fastExp(fast ? y : 0.0);
    return fast ? e : 0.0;
}

} // namespace draw_kernels

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
    std::uint64_t next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /**
     * Step back past the last @p n values: the state is then the one
     * @p n next() calls ago. next() maps (a, b, c, d) to
     * (a ^ b ^ d, a ^ b ^ c, a ^ c ^ (b << 17), rotl(b ^ d, 45));
     * each step undoes that, solving x = b ^ (b << 17) for b by
     * shifted xors.
     */
    void rewind(int n)
    {
        for (int i = 0; i < n; ++i) {
            const std::uint64_t bd = std::rotr(s_[3], 45);
            const std::uint64_t x = s_[1] ^ s_[2];
            const std::uint64_t b = x ^ (x << 17) ^ (x << 34) ^ (x << 51);
            const std::uint64_t ac = s_[1] ^ b;
            s_[0] ^= bd;
            s_[1] = b;
            s_[2] = ac ^ s_[0];
            s_[3] = bd ^ b;
        }
    }

    /** Uniform double in [0, 1): 53 random bits into the mantissa. */
    double uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi)
    {
        return scaled(lo, hi, uniform());
    }

    /** @p u, a uniform() value, mapped to [lo, hi) as
     * uniform(lo, hi) maps it. */
    static double scaled(double lo, double hi, double u)
    {
        return lo + (hi - lo) * u;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /**
     * The Tick of one log-normal draw from @p d: @p to_tick applied to
     * exp(mu + sigma * N), N a Box–Muller normal variate from two
     * uniform() draws. @p to_tick must be monotone non-decreasing.
     * A distribution with cv 0 draws nothing and returns
     * to_tick(mean). A stream that draws only lognormals (and a
     * third uniform after each) is faster as a DrawStream.
     */
    template <class F>
    Tick lognormalTick(const Lognormal &d, F to_tick)
    {
        if (d.cv_ == 0.0)
            return to_tick(d.mean_);
        const double u1 = uniform();
        const double u2 = uniform();
        return lognormalTick(d, u1, u2, to_tick);
    }

    /**
     * The Tick the draw from uniforms @p u1 and @p u2 maps to (what
     * lognormalTick(d, to_tick) returns once it has drawn them):
     * d.bracketTick of the kernels' factor, and where the bracket
     * does not decide, @p to_tick of d.libmValue on the same u1 and
     * u2. So the result is bit-identical to to_tick(libm value) on
     * every draw.
     */
    template <class F>
    static Tick lognormalTick(const Lognormal &d, double u1, double u2,
                              F to_tick)
    {
        if (const auto t = d.bracketTick(
                draw_kernels::factor(d.sigma_, u1, u2), to_tick))
            return *t;
        return to_tick(d.libmValue(u1, u2));
    }

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
