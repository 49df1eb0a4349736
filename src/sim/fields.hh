/**
 * @file
 * The field-list convention every digested or serialised struct
 * follows.
 *
 * A struct T declares, next to itself, one function template
 *
 *     template <class V, sim::FieldsOf<T> S>
 *     void visitFields(V &v, S &x);
 *
 * that calls `v("key", x.member)` once per member, in declaration
 * order. That list is the struct's only description of its fields:
 * the result digest (core/digest.hh), the JSON codec (sim/json.hh)
 * and every file format built on it read the struct through it, so
 * adding a member to the list is all it takes to digest, cache and
 * replay it. `S` is `T` or `const T`, so one template serves both the
 * reading visitors (digest, encoder) and the writing one (decoder).
 */

#ifndef JETSIM_SIM_FIELDS_HH
#define JETSIM_SIM_FIELDS_HH

#include <concepts>
#include <string_view>
#include <type_traits>

namespace jetsim::sim {

/** `S` is `T`, possibly const-qualified. */
template <class S, class T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

/**
 * Call `fn(a, b)` for every field `a` of @p from and field `b` of
 * @p to that share a key and a type, in @p from's list order — e.g.
 * to copy the fields two structs have in common, or to accumulate one
 * struct's numeric fields into another's.
 */
template <class From, class To, class Fn>
void
zipFields(From &from, To &to, Fn fn)
{
    auto each = [&](const char *key_a, auto &a) {
        const std::string_view key = key_a;
        auto match = [&](const char *key_b, auto &b) {
            if constexpr (std::same_as<std::remove_cvref_t<decltype(a)>,
                                       std::remove_cvref_t<decltype(b)>>)
                if (key == key_b)
                    fn(a, b);
        };
        visitFields(match, to);
    };
    visitFields(each, from);
}

} // namespace jetsim::sim

#endif // JETSIM_SIM_FIELDS_HH
