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

// Compile-time series for the draw tables, in long double so each
// entry rounds to within an ulp of its double. consteval: none of it
// is emitted as code.

constexpr long double kPiL = 3.141592653589793238462643383279502884L;
constexpr long double kLn2L = 0.693147180559945309417232121458176568L;

/** ln(x) for x in [1/2, 1]: 2 atanh((x - 1) / (x + 1)). */
consteval long double
lnSeries(long double x)
{
    const long double z = (x - 1) / (x + 1);
    long double term = z, sum = 0;
    for (int k = 1; k < 80; k += 2) {
        sum += term / k;
        term *= z * z;
    }
    return 2 * sum;
}

/** sin(t) (@p odd) or cos(t) for t in [0, pi/2]: Taylor series. */
consteval long double
trigSeries(long double t, bool odd)
{
    long double term = odd ? t : 1, sum = 0;
    for (int k = odd ? 1 : 0; k < 60; k += 2) {
        sum += term;
        term *= -t * t / ((k + 1) * (k + 2));
    }
    return sum;
}

/** exp(x) for x in [0, ln 2): Taylor series. */
consteval long double
expSeries(long double x)
{
    long double term = 1, sum = 0;
    for (int k = 1; k < 40; ++k) {
        sum += term;
        term *= x / k;
    }
    return sum;
}

} // namespace

namespace draw_tables {

constexpr std::array<LogEntry, 128> kLog = []() consteval {
    std::array<LogEntry, 128> t{};
    for (int i = 0; i < 128; ++i) {
        const double invc = 1.0 / (1.0 + (i + 0.5) / 128);
        t[i] = {invc, static_cast<double>(-lnSeries(invc))};
    }
    return t;
}();

constexpr std::array<CosEntry, 256> kCos2Pi = []() consteval {
    std::array<CosEntry, 256> t{};
    for (int j = 0; j < 256; ++j) {
        // 2 pi j / 256 = quadrant * pi/2 + a, a in [0, pi/2).
        const long double a = kPiL * (j % 64) / 128;
        const long double c = trigSeries(a, false);
        const long double s = trigSeries(a, true);
        const long double cs[4] = {c, -s, -c, s};
        const long double sn[4] = {s, c, -s, -c};
        t[j] = {static_cast<double>(cs[j / 64]),
                static_cast<double>(sn[j / 64])};
    }
    return t;
}();

constexpr std::array<double, 64> kExp2 = []() consteval {
    std::array<double, 64> t{};
    for (int j = 0; j < 64; ++j)
        t[j] = static_cast<double>(expSeries(kLn2L * j / 64));
    return t;
}();

} // namespace draw_tables

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
Rng::lognormalLibm(const Lognormal &d, double u1, double u2)
{
    // Box-Muller's first variate, then the lognormal: the operations,
    // in the order, that every recorded digest was drawn with.
    if (u1 < 1e-300)
        u1 = 1e-300;
    const double normal =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    return std::exp(d.mu_ + d.sigma_ * normal);
}

Lognormal::Lognormal(double mean, double cv) : mean_(mean), cv_(cv)
{
    JETSIM_ASSERT(mean > 0.0 && cv >= 0.0);
    const double sigma2 = std::log(1.0 + cv * cv);
    mu_ = std::log(mean) - 0.5 * sigma2;
    sigma_ = std::sqrt(sigma2);
}

Rng
Rng::fork(std::string_view label)
{
    return Rng(next() ^ hashLabel(label));
}

} // namespace jetsim::sim
