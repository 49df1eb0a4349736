#include "sim/rng.hh"

#include <cmath>

#include "sim/logging.hh"

namespace jetsim::sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
hashLabel(std::string_view label)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : label) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random bits into the double mantissa.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    JETSIM_ASSERT(lo <= hi);
    // Width in unsigned arithmetic: `hi - lo` overflows int64 when
    // the bounds span more than half the type's range, and the +1
    // wraps to 0 for the full range (then `next() % span` would
    // divide by zero). Both are handled by staying unsigned and
    // special-casing the wrap.
    const std::uint64_t span = static_cast<std::uint64_t>(hi) -
                               static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     next() % span);
}

double
Rng::normal()
{
    // Box-Muller; discard the second variate to stay stateless.
    double u1 = uniform();
    double u2 = uniform();
    if (u1 < 1e-300)
        u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * M_PI * u2);
}

Lognormal::Lognormal(double mean, double cv) : mean_(mean), cv_(cv)
{
    JETSIM_ASSERT(mean > 0.0 && cv >= 0.0);
    const double sigma2 = std::log(1.0 + cv * cv);
    mu_ = std::log(mean) - 0.5 * sigma2;
    sigma_ = std::sqrt(sigma2);
}

double
Rng::lognormal(const Lognormal &d)
{
    if (d.cv_ == 0.0)
        return d.mean_;
    return std::exp(d.mu_ + d.sigma_ * normal());
}

double
Rng::lognormalBounded(const Lognormal &d)
{
    const double v = lognormal(d);
    const double lo = d.mean_ / kLognormalEnvelope;
    const double hi = d.mean_ * kLognormalEnvelope;
    return v < lo ? lo : (v > hi ? hi : v);
}

Rng
Rng::fork(std::string_view label)
{
    return Rng(next() ^ hashLabel(label));
}

} // namespace jetsim::sim
