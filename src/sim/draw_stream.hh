/**
 * @file
 * Lognormal draws taken eight at a time.
 *
 * A DrawStream owns an Rng and hands out the same draws, in the same
 * order, as that Rng would one call at a time: per tuple, u1 and u2
 * for a lognormal draw, then (Arity 3) one more uniform. A refill
 * draws the next kDrawBlock tuples' uniforms and evaluates their
 * exp(sigma * N) factors in one loop over the table kernels
 * (draw_kernels::factor), which the compiler vectorizes; that loop is
 * compiled once per ISA level (DrawLevel) and the stream runs the
 * best one the host supports. A draw then multiplies its factor by
 * the distribution's exp(mu) and decides its Tick by the bracket
 * (Lognormal::bracketTick); where the bracket does not decide, libm
 * evaluates the same uniforms, replayed by rewinding the Rng to them.
 * So every Tick equals what Rng::lognormalTick gives, which equals
 * libm's (DESIGN.md §4, "Tick-exact draws").
 */

#ifndef JETSIM_SIM_DRAW_STREAM_HH
#define JETSIM_SIM_DRAW_STREAM_HH

#include <array>
#include <span>
#include <string_view>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace jetsim::sim {

/** Tuples a DrawStream draws per refill. */
inline constexpr int kDrawBlock = 8;

/** The factor loop compiled for one ISA level. */
struct DrawLevel
{
    /** factor[i] = draw_kernels::factor(sigma, u1[i], u2[i]) for i in
     * [0, kDrawBlock). */
    using FactorsFn = void (*)(double sigma, const double *u1,
                               const double *u2, double *factor);

    std::string_view name;
    /** Does this host run the level's instructions? */
    bool (*host_runs)();
    FactorsFn factors;
};

/** Every level this build compiled the loop for, best first. The
 * last, the architecture's baseline, runs on every host. */
std::span<const DrawLevel> drawLevels();

/** The first of drawLevels() the host runs. */
const DrawLevel &hostDrawLevel();

/**
 * Lognormal draws of one coefficient of variation from an owned Rng,
 * taken kDrawBlock tuples at a time. @p Arity is the uniforms per
 * tuple: 2 (the draw's u1 and u2) or 3 (then one more, third()).
 */
template <int Arity>
class DrawStream
{
    static_assert(Arity == 2 || Arity == 3);

  public:
    /**
     * @param rng   the stream's generator, at the first tuple's u1
     * @param shape a distribution of the cv every draw uses (its mean
     *              may differ from theirs); the cv must be above 0
     * @param level the factor loop to run; the host must run it
     *              (DrawLevel::host_runs)
     */
    DrawStream(Rng rng, const Lognormal &shape,
               const DrawLevel &level = hostDrawLevel());

    /**
     * The Tick of the next tuple's draw from @p d, bit-identical to
     * Rng::lognormalTick(d, to_tick) on the Rng this stream owns.
     * @p d must have the stream's cv; its mean may change between
     * calls. @p to_tick must be monotone non-decreasing.
     */
    template <class F>
    Tick lognormalTick(const Lognormal &d, F to_tick)
    {
        JETSIM_ASSERT(d.sigma_ == sigma_,
                      "a stream of sigma %g drew for sigma %g", sigma_,
                      d.sigma_);
        if (next_ == kDrawBlock)
            refill();
        const int i = next_++;
        if (const auto t = d.bracketTick(factor_[i], to_tick))
            return *t;
        return to_tick(libmValue(d, i));
    }

    /** The last drawn tuple's third uniform: the one the Rng draws
     * after lognormalTick's two. */
    double third() const
        requires(Arity == 3)
    {
        return third_[next_ - 1];
    }

  private:
    /** Draw the next block's uniforms and evaluate its factors. */
    void refill();

    /** libm's value of tuple @p i's draw from @p d, on its uniforms
     * replayed by a copy of rng_ rewound to them. Out of line: a
     * fallback. */
    double libmValue(const Lognormal &d, int i) const;

    Rng rng_; ///< at the first uniform after the block
    std::array<double, kDrawBlock> factor_{};
    [[no_unique_address]] std::array<double, Arity == 3 ? kDrawBlock : 0>
        third_{};
    double sigma_;
    DrawLevel::FactorsFn factors_;
    int next_ = kDrawBlock; ///< the block's next tuple
};

extern template class DrawStream<2>;
extern template class DrawStream<3>;

} // namespace jetsim::sim

#endif // JETSIM_SIM_DRAW_STREAM_HH
