#include "core/digest.hh"

#include <ranges>
#include <string>
#include <type_traits>

#include "check/digest.hh"

namespace jetsim::core {

namespace {

/**
 * Field-list visitor folding each field into a check::Digest in list
 * order: scalars by value, a prof::Cdf as its count and —
 * when non-empty — mean and eight quantiles, a vector element by
 * element, a nested struct with a label() (a spec) as that label, any
 * other struct through its own field list.
 */
struct FieldDigest
{
    check::Digest &d;

    template <class T>
    void
    operator()(const char *key, const T &x)
    {
        if constexpr (std::is_same_v<T, bool>) {
            d.add(std::uint64_t{x});
        } else if constexpr (std::is_same_v<T, double> ||
                             std::is_same_v<T, std::string>) {
            d.add(x);
        } else if constexpr (std::is_signed_v<T>) {
            d.add(static_cast<std::int64_t>(x));
        } else if constexpr (std::is_integral_v<T>) {
            d.add(static_cast<std::uint64_t>(x));
        } else if constexpr (std::is_same_v<T, prof::Cdf>) {
            add(x);
        } else if constexpr (std::ranges::range<T>) {
            for (const auto &e : x)
                (*this)(key, e);
        } else if constexpr (requires { x.label(); }) {
            d.add(x.label());
        } else {
            visitFields(*this, x);
        }
    }

    void
    add(const prof::Cdf &c)
    {
        d.add(static_cast<std::uint64_t>(c.count()));
        if (c.empty())
            return;
        d.add(c.mean());
        for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
            d.add(c.quantile(q));
    }
};


template <class R>
std::uint64_t
fieldListDigest(const R &r)
{
    check::Digest d;
    FieldDigest v{d};
    visitFields(v, r);
    return d.value();
}

} // namespace

std::uint64_t
resultDigest(const ExperimentResult &r)
{
    return fieldListDigest(r);
}

std::uint64_t
resultDigest(const MixedExperimentResult &r)
{
    return fieldListDigest(r);
}

std::uint64_t
resultDigest(const FleetResult &r)
{
    return fieldListDigest(r);
}

} // namespace jetsim::core
