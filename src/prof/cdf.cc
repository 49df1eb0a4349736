#include "prof/cdf.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace jetsim::prof {

namespace {

/**
 * Where the q-quantile of n >= 1 samples lies: at q * (n - 1) in
 * sorted order, frac of the way from order statistic lo to lo + 1, or
 * order statistic lo itself when it is the last. Cdf::quantile and
 * selectQuantile both go through it, so they agree bit for bit.
 */
struct QuantileRank
{
    QuantileRank(double q, std::size_t n)
    {
        JETSIM_ASSERT(n >= 1);
        JETSIM_ASSERT(q >= 0.0 && q <= 1.0);
        const double pos = q * static_cast<double>(n - 1);
        lo = static_cast<std::size_t>(pos);
        frac = pos - static_cast<double>(lo);
        last = lo + 1 >= n;
    }

    /** The quantile from order statistics lo and lo + 1 (!last). */
    double
    interpolate(double at_lo, double at_next) const
    {
        return at_lo * (1.0 - frac) + at_next * frac;
    }

    std::size_t lo = 0;
    double frac = 0.0;
    bool last = false; ///< lo == n - 1: the quantile is order statistic lo
};

} // namespace

double
selectQuantile(std::vector<double> &samples, double q)
{
    const QuantileRank r(q, samples.size());
    const auto lo = samples.begin() + static_cast<std::ptrdiff_t>(r.lo);
    std::nth_element(samples.begin(), lo, samples.end());
    if (r.last)
        return *lo;
    return r.interpolate(*lo, *std::min_element(lo + 1, samples.end()));
}

void
Cdf::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
    sum_ += x;
}

void
Cdf::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
Cdf::quantile(double q) const
{
    JETSIM_ASSERT(!samples_.empty());
    ensureSorted();
    const QuantileRank r(q, samples_.size());
    if (r.last)
        return samples_[r.lo];
    return r.interpolate(samples_[r.lo], samples_[r.lo + 1]);
}

double
Cdf::mean() const
{
    if (samples_.empty())
        return 0.0;
    return sum_ / static_cast<double>(samples_.size());
}

double
Cdf::fractionBelow(double x) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    const auto it =
        std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>>
Cdf::curve(int points) const
{
    JETSIM_ASSERT(points >= 2);
    std::vector<std::pair<double, double>> out;
    if (samples_.empty())
        return out;
    ensureSorted();
    const double lo = samples_.front();
    const double hi = samples_.back();
    out.reserve(static_cast<std::size_t>(points));
    for (int i = 0; i < points; ++i) {
        const double x =
            lo + (hi - lo) * static_cast<double>(i) / (points - 1);
        out.emplace_back(x, fractionBelow(x));
    }
    return out;
}

} // namespace jetsim::prof
