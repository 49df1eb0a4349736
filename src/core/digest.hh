/**
 * @file
 * Bit-exact digests of experiment results.
 *
 * The JetSan determinism invariant: running the same seeded spec
 * twice must reproduce every output bit. These helpers fold an
 * entire result — SoC metrics, per-process decomposition, counter
 * CDFs — into one 64-bit value so the replay harness
 * (tools/simcheck) and tests/check/determinism_test.cc can compare
 * runs with a single integer.
 *
 * Every digest walks the result's field list (sim/fields.hh), so a
 * field added to the list is digested without touching this file.
 */

#ifndef JETSIM_CORE_DIGEST_HH
#define JETSIM_CORE_DIGEST_HH

#include <cstdint>

#include "core/experiment.hh"
#include "core/fleet.hh"

namespace jetsim::core {

/** Digest of every numeric field of a single-model result. */
std::uint64_t resultDigest(const ExperimentResult &r);

/** Digest of a heterogeneous (multi-tenant) result. */
std::uint64_t resultDigest(const MixedExperimentResult &r);

/**
 * Digest of a fleet result. Its field list holds only
 * topology-invariant fields — per-board serving metrics, balancer
 * decisions, and the total executed-event count — never the engine's
 * epoch/merge diagnostics, which legitimately vary with (shards,
 * threads). Equality of this digest across configurations *is* the
 * sharded engine's bit-identity claim (tests/sim/sharded_diff_test.cc,
 * CI pass 1c).
 */
std::uint64_t resultDigest(const FleetResult &r);

} // namespace jetsim::core

#endif // JETSIM_CORE_DIGEST_HH
