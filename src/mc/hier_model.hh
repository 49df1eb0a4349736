/**
 * @file
 * Hierarchical two-hop dispatch model: jetmc coverage for the fleet
 * layer's root -> sub-balancer -> device scheduling (ISSUE 9).
 *
 * A root balancer on shard 0 dispatches jobs round-robin to devices
 * spread over two device shards; each job takes the production two-hop
 * path — a cross-shard post to the device's shard followed by a
 * local_only sub-balancer hop that injects the arrival. Devices on
 * *different* shards receive their hop events at the same ticks, so in
 * controlled (merge-fallback) mode every hop tick is a ShardMerge
 * arbitration site. The explorer proves, over the complete bounded
 * schedule space:
 *
 *  - deadlock-freedom: every dispatched job arrives under every merge
 *    order — no schedule strands a sub-balancer hop;
 *  - digest invariance: per-device arrival counts are identical under
 *    every merge order — the machine-checked core of the claim that
 *    hierarchical dispatch is topology- and schedule-invariant
 *    (same-shard ties resolve by the sub port's message counter, which
 *    equals root dispatch order).
 *
 * The deliberately broken variant (racy=true) folds the *cross-shard
 * execution order* of same-tick arrivals into the digest — exactly
 * what merge arbitration varies — so the explorer must find a digest
 * mismatch (self-test that the two-hop sites are live choice points).
 *
 * runWith() exposes the workload on the per-shard clock loop, so
 * tests can tie the explored merge space to the production
 * scheduling paths (tests/mc/hier_mc_test.cc).
 */

#ifndef JETSIM_MC_HIER_MODEL_HH
#define JETSIM_MC_HIER_MODEL_HH

#include "mc/model.hh"
#include "sim/sharded_engine.hh"

namespace jetsim::mc {

/** Root -> sub -> device dispatch over three shards. */
class HierDispatchModel final : public Model
{
  public:
    /** @param rounds root dispatch waves (each wave posts one job to
     *  every device); @param racy fold schedule-dependent cross-shard
     *  order into the digest (the explorer must catch it). */
    explicit HierDispatchModel(int rounds = 2, bool racy = false)
        : rounds_(rounds), racy_(racy)
    {
    }

    std::string name() const override
    {
        return racy_ ? "hierdispatch-racy" : "hierdispatch";
    }

    RunOutcome run(const std::vector<int> &script) override;

    /**
     * Run the same workload under explicit engine options. With
     * @p script == nullptr the engine is uncontrolled: lookahead > 0
     * exercises the clock loop (threads > 1 genuinely parallel).
     * Digest comparability with run() ties the explored merge space
     * to production paths.
     */
    RunOutcome runWith(const sim::ShardedEngine::Options &opts,
                       const std::vector<int> *script);

    /** One process per shard (root + two device shards). */
    int procCount() const override { return 3; }

    int procOf(sim::ChoiceKind kind, std::int64_t actor) const override
    {
        if (kind == sim::ChoiceKind::ShardMerge && actor >= 0 &&
            actor < 3)
            return static_cast<int>(actor);
        return kProcUnknown;
    }

    /** Exhaustive search: the root's dispatch couples every shard. */
    bool dependent(int, int) const override { return true; }

  private:
    int rounds_;
    bool racy_;
};

} // namespace jetsim::mc

#endif // JETSIM_MC_HIER_MODEL_HH
