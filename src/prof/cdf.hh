/**
 * @file
 * Empirical CDFs — the presentation form of the paper's Fig 5/10.
 */

#ifndef JETSIM_PROF_CDF_HH
#define JETSIM_PROF_CDF_HH

#include <cstddef>
#include <vector>

#include "sim/fields.hh"

namespace jetsim::prof {

/**
 * Cdf::quantile(q) over @p samples, bit for bit, found by selection
 * instead of a sort: nth_element places the lower of the two order
 * statistics the quantile lies between, min_element over the rest
 * finds the upper, and the two share Cdf::quantile's interpolation.
 * Reorders @p samples; O(n).
 */
double selectQuantile(std::vector<double> &samples, double q);

/**
 * Collects scalar samples and answers quantile / cumulative-fraction
 * queries. Samples are sorted lazily on first query.
 */
class Cdf
{
  public:
    /** Record one sample. */
    void add(double x);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /** Quantile in [0,1]; linear interpolation between order stats. */
    double quantile(double q) const;

    double median() const { return quantile(0.5); }
    double min() const { return quantile(0.0); }
    double max() const { return quantile(1.0); }
    /** Sum in insertion order over the count: sorting for a quantile
     * never moves it. */
    double mean() const;

    /** Fraction of samples <= @p x. */
    double fractionBelow(double x) const;

    /**
     * Evenly spaced CDF curve: @p points (x, F(x)) pairs covering the
     * sample range — the series a plotting script would consume.
     */
    std::vector<std::pair<double, double>> curve(int points = 21) const;

    /** Raw samples in their current order (sorted iff a
     * quantile-style query already ran). */
    const std::vector<double> &samples() const { return samples_; }

    bool operator==(const Cdf &) const = default;

    /** Exact state, so a serialised CDF restores bit-identically
     * whether or not a quantile query has sorted it. */
    template <class V, sim::FieldsOf<Cdf> S>
    friend void
    visitFields(V &v, S &c)
    {
        v("samples", c.samples_);
        v("sorted", c.sorted_);
        v("sum", c.sum_);
    }

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
    double sum_ = 0.0;
};

} // namespace jetsim::prof

#endif // JETSIM_PROF_CDF_HH
