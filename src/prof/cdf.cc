#include "prof/cdf.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace jetsim::prof {

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
    JETSIM_ASSERT(q >= 0.0 && q <= 1.0);
    ensureSorted();
    if (samples_.size() == 1)
        return samples_.front();
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= samples_.size())
        return samples_.back();
    return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
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
