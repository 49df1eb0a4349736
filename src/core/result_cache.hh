/**
 * @file
 * Content-addressed on-disk cache of experiment results.
 *
 * A sweep re-runs the same grid cells again and again — the b1/p1
 * corner is shared by half the paper's figures, and editing one bench
 * re-simulates every cell it shares with the others. Because the
 * simulator is bit-deterministic (same spec ⇒ same result, the JetSan
 * determinism invariant), a result can be keyed purely by its spec:
 * the cache key is an FNV-1a digest over the format version, the
 * kind tag "experiment" and the spec's field list (its canonical
 * JSON, sim/json.hh), so any change to any field, or to the format,
 * misses.
 *
 * Entries are single JSON files, `jetsim-<16-hex-key>.json`, written
 * atomically: the result's field list as a `"jetsim_cache": 2`
 * document of the shared codec (sim/json.hh), bit-exact, so a cached
 * result's core::resultDigest equals the fresh one's. A load decodes
 * the stored spec with the result and compares it with the requested
 * one (guards digest collisions). Any read or decode error, or a
 * mismatch, is a miss, never an error — a corrupted cache can only
 * cost time.
 */

#ifndef JETSIM_CORE_RESULT_CACHE_HH
#define JETSIM_CORE_RESULT_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "core/experiment.hh"

namespace jetsim::core {

/** On-disk, digest-keyed store of experiment results. */
class ResultCache
{
  public:
    /** Bump when the JSON schema or the key derivation changes. */
    static constexpr int kFormatVersion = 2;

    /** Open (and create, if needed) a cache rooted at @p dir. */
    explicit ResultCache(std::string dir);

    /** Digest of every field of @p spec (the cache key). */
    static std::uint64_t specKey(const ExperimentSpec &spec);

    /** File that does/would hold the entry for @p spec. */
    std::string pathFor(const ExperimentSpec &spec) const;

    /**
     * Look up a cached result. Returns nullopt on miss, corruption,
     * format-version or spec mismatch — the caller re-runs.
     */
    std::optional<ExperimentResult>
    load(const ExperimentSpec &spec) const;

    /** Persist a result under its spec's key. Best-effort: failures
     * (read-only dir, full disk) are reported via warn() once. */
    void store(const ExperimentResult &r) const;

  private:
    std::string pathForKey(std::uint64_t key) const;

    std::string dir_;
};

} // namespace jetsim::core

#endif // JETSIM_CORE_RESULT_CACHE_HH
