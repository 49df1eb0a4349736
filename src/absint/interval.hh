/**
 * @file
 * Interval domain for the static bound analyzer (jetbound).
 *
 * An Interval [lo, hi] abstracts a set of reachable concrete values:
 * every value the simulator can produce for the bounded quantity lies
 * inside it. Soundness is the only contract — the analyses in this
 * directory derive lo/hi from explicit mechanisms in the simulator
 * (jitter envelopes, arbitration rotation, scheduler granularity) and
 * the harness in tests/absint re-checks the containment property
 * against live runs on every zoo model.
 */

#ifndef JETSIM_ABSINT_INTERVAL_HH
#define JETSIM_ABSINT_INTERVAL_HH

#include <string>

namespace jetsim::absint {

/** A closed interval of doubles; the bottom element is [0, 0]. */
struct Interval
{
    double lo = 0.0;
    double hi = 0.0;

    /** Membership with a symmetric tolerance (float accumulation). */
    bool
    contains(double v, double eps = 1e-9) const
    {
        return v >= lo - eps && v <= hi + eps;
    }

    bool valid() const { return lo <= hi; }
    double width() const { return hi - lo; }

    /** `[lo, hi]` with %.3f precision, for reports. */
    std::string str() const;
};

} // namespace jetsim::absint

#endif // JETSIM_ABSINT_INTERVAL_HH
