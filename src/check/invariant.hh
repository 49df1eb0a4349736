/**
 * @file
 * JetSan invariant taxonomy.
 *
 * Every runtime check in the simulator belongs to one of five
 * invariant classes, mirroring the failure modes that would corrupt
 * the paper-reproduction numbers silently: causality bugs in the
 * event queue, memory-accounting drift, stream/context hazards,
 * physically implausible model outputs, and cross-seed
 * non-determinism.
 */

#ifndef JETSIM_CHECK_INVARIANT_HH
#define JETSIM_CHECK_INVARIANT_HH

namespace jetsim::check {

/** How bad a violation is. */
enum class Severity {
    Info,    ///< noteworthy but harmless
    Warning, ///< recoverable; results may be degraded
    Error,   ///< simulator bug; results cannot be trusted
};

/** The invariant class a check belongs to. */
enum class Invariant {
    Causality,        ///< event-queue time ordering
    MemoryAccounting, ///< unified-memory alloc/free balance
    StreamHazard,     ///< use of destroyed streams/contexts, overlap
    Plausibility,     ///< physical bounds (power, freq, NaN/Inf)
    Determinism,      ///< same seed must reproduce bit-identically
};

/** Number of Invariant enumerators (sizes per-class counters). */
inline constexpr int kInvariantCount = 5;

/** Display name, e.g. "error". */
const char *severityName(Severity s);

/** Display name, e.g. "causality". */
const char *invariantName(Invariant i);

} // namespace jetsim::check

#endif // JETSIM_CHECK_INVARIANT_HH
