/**
 * @file
 * Two-shard ping model: jetmc coverage for the sharded event core.
 *
 * A token bounces between two ShardedEngine shards through post()
 * (the cross-shard message path) while both shards execute local
 * events at the *same ticks* — so in controlled (merge-fallback) mode
 * every tick is a ShardMerge arbitration site: which shard's event
 * runs first is the schedule under test. The explorer then proves,
 * over the complete bounded schedule space:
 *
 *  - deadlock-freedom of the merge scheduling: the token always
 *    completes its round trips, no schedule strands a shard;
 *  - digest invariance: counters (hops, per-shard work) are identical
 *    under every merge order — the semantic core of the engine's
 *    bit-identity claim, machine-checked rather than argued.
 *
 * The deliberately broken variant (racy=true) folds the *execution
 * order* of same-tick cross-shard events into the digest. That order
 * is exactly what merge arbitration varies, so the explorer must find
 * a digest mismatch — the self-test that the harness can see
 * schedule-dependence through the sharded engine at all.
 *
 * runWith() exposes the same workload on the per-shard clock loop
 * (lookahead > 0) so tests can compare uncontrolled parallel digests
 * against the explored merge space (tests/mc/shard_mc_test.cc).
 */

#ifndef JETSIM_MC_SHARD_MODEL_HH
#define JETSIM_MC_SHARD_MODEL_HH

#include "mc/model.hh"
#include "sim/sharded_engine.hh"

namespace jetsim::mc {

/** Token ping-pong across two shards with colliding local events. */
class ShardPingModel final : public Model
{
  public:
    /** @param rounds token round trips (2*rounds cross-shard hops);
     *  @param racy fold schedule-dependent order into the digest
     *         (the explorer must catch it). */
    explicit ShardPingModel(int rounds = 3, bool racy = false)
        : rounds_(rounds), racy_(racy)
    {
    }

    std::string name() const override
    {
        return racy_ ? "shardping-racy" : "shardping";
    }

    RunOutcome run(const std::vector<int> &script) override;

    /**
     * Run the same workload under explicit engine options. With
     * @p script == nullptr the engine is uncontrolled: options with
     * lookahead > 0 exercise the real clock loop (threads > 1 runs it
     * genuinely parallel). The outcome digest is comparable
     * with run()'s — equality ties the explored merge space to the
     * production scheduling path.
     */
    RunOutcome runWith(const sim::ShardedEngine::Options &opts,
                       const std::vector<int> *script);

    /** One process per shard. */
    int procCount() const override { return 2; }

    int procOf(sim::ChoiceKind kind, std::int64_t actor) const override
    {
        if (kind == sim::ChoiceKind::ShardMerge && actor >= 0 &&
            actor < 2)
            return static_cast<int>(actor);
        return kProcUnknown;
    }

    /** Exhaustive search: the point is the complete proof, and the
     * cross-shard token makes the shards interact anyway. */
    bool dependent(int, int) const override { return true; }

  private:
    int rounds_;
    bool racy_;
};

} // namespace jetsim::mc

#endif // JETSIM_MC_SHARD_MODEL_HH
