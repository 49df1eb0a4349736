/**
 * @file
 * prof::NameId — the profiling layers' handle for interned kernel
 * and layer names.
 *
 * The registry itself lives in sim (gpu::KernelDesc carries an id and
 * gpu must not depend on prof); this header gives the profiling code
 * its natural spelling. Intern at engine-build time, accumulate into
 * dense vectors keyed by id on the hot path, resolve strings only at
 * report time.
 */

#ifndef JETSIM_PROF_NAME_ID_HH
#define JETSIM_PROF_NAME_ID_HH

#include "sim/name_registry.hh"

namespace jetsim::prof {

using NameId = sim::NameId;
inline constexpr NameId kInvalidNameId = sim::kInvalidNameId;

using sim::internName;
using sim::nameOf;

} // namespace jetsim::prof

#endif // JETSIM_PROF_NAME_ID_HH
