#include "sim/draw_stream.hh"

// x86-64 under GCC: an AVX2 (x86-64-v3) build of the loop, whose
// arithmetic runs four lanes at a time (the table lookups stay
// per-lane loads); the baseline x86-64 build does not vectorize. Clang
// and other platforms build the baseline loop only.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define JETSIM_DRAW_X86_LEVELS 1
#endif

namespace jetsim::sim {

namespace {

/**
 * The factor loop: one body, compiled below once per ISA level into
 * functions that flatten every kernel call in, so that each level's
 * loop is one vectorizable body. This file is built with
 * -fno-math-errno -fno-trapping-math (src/sim/CMakeLists.txt):
 * without them GCC keeps sqrt's errno path and the kernels' selects
 * as control flow, and the loop does not vectorize. Neither flag
 * changes a value this file computes.
 */
[[gnu::always_inline]] inline void
factorLoop(double sigma, const double *__restrict u1,
           const double *__restrict u2, double *__restrict factor)
{
    for (int i = 0; i < kDrawBlock; ++i)
        factor[i] = draw_kernels::factor(sigma, u1[i], u2[i]);
}

#ifdef JETSIM_DRAW_X86_LEVELS
[[gnu::target("arch=x86-64-v3"), gnu::flatten]] void
factorsV3(double sigma, const double *u1, const double *u2, double *factor)
{
    factorLoop(sigma, u1, u2, factor);
}

bool
hostRunsV3()
{
    return __builtin_cpu_supports("x86-64-v3");
}
#endif

[[gnu::flatten]] void
factorsBaseline(double sigma, const double *u1, const double *u2,
                double *factor)
{
    factorLoop(sigma, u1, u2, factor);
}

bool
hostRunsBaseline()
{
    return true;
}

constexpr DrawLevel kLevels[] = {
#ifdef JETSIM_DRAW_X86_LEVELS
    {"x86-64-v3", hostRunsV3, factorsV3},
#endif
    {"baseline", hostRunsBaseline, factorsBaseline},
};

} // namespace

std::span<const DrawLevel>
drawLevels()
{
    return kLevels;
}

const DrawLevel &
hostDrawLevel()
{
    const auto levels = drawLevels();
    for (const DrawLevel &l : levels)
        if (l.host_runs())
            return l;
    return levels.back();
}

template <int Arity>
DrawStream<Arity>::DrawStream(Rng rng, const Lognormal &shape,
                              const DrawLevel &level)
    : rng_(rng), sigma_(shape.sigma_), factors_(level.factors)
{
    JETSIM_ASSERT(shape.cv_ > 0.0, "a stream of cv %g draws nothing",
                  shape.cv_);
}

template <int Arity>
void
DrawStream<Arity>::refill()
{
    double u1[kDrawBlock];
    double u2[kDrawBlock];
    for (int i = 0; i < kDrawBlock; ++i) {
        u1[i] = rng_.uniform();
        u2[i] = rng_.uniform();
        if constexpr (Arity == 3)
            third_[i] = rng_.uniform();
    }
    factors_(sigma_, u1, u2, factor_.data());
    next_ = 0;
}

template <int Arity>
double
DrawStream<Arity>::libmValue(const Lognormal &d, int i) const
{
    Rng r = rng_;
    r.rewind(Arity * (kDrawBlock - i));
    const double u1 = r.uniform();
    return d.libmValue(u1, r.uniform());
}

template class DrawStream<2>;
template class DrawStream<3>;

} // namespace jetsim::sim
