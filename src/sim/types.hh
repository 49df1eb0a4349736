/**
 * @file
 * Fundamental simulation types and time-unit helpers.
 *
 * The simulator uses a single global time base: one Tick equals one
 * nanosecond of simulated wall time. All durations and timestamps in
 * the code base are expressed in Ticks unless a name explicitly says
 * otherwise (e.g. "seconds" in user-facing reports).
 */

#ifndef JETSIM_SIM_TYPES_HH
#define JETSIM_SIM_TYPES_HH

#include <cstdint>

namespace jetsim::sim {

/** Simulated time. One tick is one nanosecond. */
using Tick = std::int64_t;

/** Sentinel for "no scheduled time". */
constexpr Tick kTickInvalid = -1;

/** Largest representable tick. */
constexpr Tick kTickMax = INT64_MAX;

/** @name Duration constructors
 * Convert human units into Ticks. Implemented as constexpr functions
 * rather than user-defined literals so call sites read
 * `usec(20)` / `msec(1.5)` explicitly.
 * @{
 */
constexpr Tick
usec(double u)
{
    return static_cast<Tick>(u * 1e3);
}

constexpr Tick
msec(double m)
{
    return static_cast<Tick>(m * 1e6);
}

constexpr Tick
sec(double s)
{
    return static_cast<Tick>(s * 1e9);
}
/** @} */

/** @name Duration accessors
 * Convert Ticks back into floating-point human units.
 * @{
 */
constexpr double
toUsec(Tick t)
{
    return static_cast<double>(t) / 1e3;
}

constexpr double
toMsec(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

constexpr double
toSec(Tick t)
{
    return static_cast<double>(t) / 1e9;
}
/** @} */

/** Bytes, as an unsigned 64-bit count. */
using Bytes = std::uint64_t;

constexpr Bytes kKiB = 1024;
constexpr Bytes kMiB = 1024 * kKiB;
constexpr Bytes kGiB = 1024 * kMiB;

/** Convert bytes to mebibytes for reporting. */
constexpr double
toMiB(Bytes b)
{
    return static_cast<double>(b) / static_cast<double>(kMiB);
}

} // namespace jetsim::sim

#endif // JETSIM_SIM_TYPES_HH
