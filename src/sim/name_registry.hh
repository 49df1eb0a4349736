/**
 * @file
 * Process-wide string interning for hot-path identifiers.
 *
 * Kernel/layer names are decided once, at engine-build time; the
 * profiling layers used to key maps by std::string on every executed
 * kernel. Interning turns the hot path into dense-vector indexing by
 * a small integer id and defers string resolution to report time.
 *
 * Ids are process-global and thread-safe (the parallel sweep runner
 * interns from worker threads). Id *values* depend on interning
 * order and must therefore never influence results — report-time
 * consumers sort by resolved name or by measured quantity, not by id.
 *
 * Synchronization (audited by jetrace, DESIGN.md 4h): the registry
 * singleton is a core::Mutex-guarded table; nameOf() may return its
 * reference outside the lock because storage is a std::deque the
 * registry only appends to — a published string is never moved or
 * mutated for the life of the process.
 */

#ifndef JETSIM_SIM_NAME_REGISTRY_HH
#define JETSIM_SIM_NAME_REGISTRY_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace jetsim::sim {

/** Dense identifier for an interned name. */
using NameId = std::uint32_t;

/** "Not interned" sentinel (e.g. hand-built KernelDescs). */
inline constexpr NameId kInvalidNameId = 0xffffffffu;

/** Intern @p name, returning its stable id (idempotent). */
NameId internName(std::string_view name);

/** Resolve an id back to its string; fatal() on an unknown id. */
const std::string &nameOf(NameId id);

} // namespace jetsim::sim

#endif // JETSIM_SIM_NAME_REGISTRY_HH
