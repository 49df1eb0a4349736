/**
 * @file
 * Stateless DFS over the schedule space with partial-order reduction.
 *
 * The explorer never snapshots simulator state. A node of the search
 * tree is a choice *script* (mc/trace.hh); visiting it means
 * re-executing the model from scratch under that script. After a run
 * whose script had length L, every arbitration site i >= L in the
 * recorded trace took the default — so each non-default alternative
 * at such a site spawns the child script trace[0..i-1].picks + [alt].
 * Branching only at sites at or beyond the script length partitions
 * the schedule space by first deviation point: every interleaving
 * (within the depth bound) is visited exactly once, and the run count
 * of this naive DFS is the denominator of the reported reduction
 * factor.
 *
 * The reduction is a sleep-set-style commutation prune built on the
 * model's dependence relation (for deployments: distinct processes
 * are independent unless they share a buffer). A non-default
 * alternative that would schedule process b at site i is redundant
 * when the default continuation reaches a same-kind site that
 * schedules b anyway with only b-independent steps in between: the
 * two runs are the same Mazurkiewicz trace, so every logical
 * invariant (digest equality, deadlock-freedom) holds in one iff it
 * holds in the other. Any dependent intermediate step — or any step
 * the model cannot attribute (kProcUnknown) — blocks the prune, so
 * fully dependent models (the toylock self-test, shared-buffer
 * deployments) degrade to the exhaustive search. Note the timing
 * *bounds* (worst-case blocking) are maxima over the reduced run
 * set: sound for the logical properties, reported as observed
 * bounds, not proofs.
 */

#ifndef JETSIM_MC_EXPLORER_HH
#define JETSIM_MC_EXPLORER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mc/model.hh"

namespace jetsim::mc {

/** Search budget and switches. */
struct ExploreConfig
{
    /** Branch only at arbitration sites with index < depth. */
    int depth = 64;
    /** Abort the search after this many executions. */
    std::uint64_t max_runs = 200000;
    /** Apply the commutation prune (false = naive DFS). */
    bool dpor = true;
    /** Stop at the first failing run (still minimises the CE). */
    bool stop_on_failure = true;
    /** Greedily shrink a counterexample script before reporting. */
    bool minimize = true;
};

/** What the search established. */
struct ExploreReport
{
    std::uint64_t runs = 0;   ///< executions (incl. minimisation)
    std::uint64_t pruned = 0; ///< branches skipped by the reduction
    std::uint64_t branches = 0; ///< branches actually scheduled
    int max_trace_len = 0;    ///< longest trace seen (sites)
    std::uint64_t max_events = 0; ///< most events in one run

    bool run_budget_hit = false; ///< max_runs exhausted: incomplete
    bool depth_clipped = false;  ///< sites beyond depth existed
    bool event_bound_hit = false; ///< some run hit its event budget

    /** @name Verdicts
     * @{ */
    bool deadlock = false;
    bool digest_mismatch = false;
    std::uint64_t violation_runs = 0;
    /** @} */

    /** Reference digest (the default schedule's). */
    std::uint64_t digest = 0;
    /** Elementwise max over explored runs (ms per process). */
    std::vector<double> max_block_ms;

    /** Minimal failing script; empty when no failure. */
    std::vector<int> ce_script;
    /** "deadlock", "violation" or "digest-mismatch". */
    std::string ce_what;
    std::string ce_detail;

    /** All checked properties held over the explored space. */
    bool
    clean() const
    {
        return !deadlock && !digest_mismatch && violation_runs == 0;
    }
    /** clean() over the *complete* bounded space. */
    bool
    proved() const
    {
        return clean() && !run_budget_hit && !event_bound_hit;
    }
};

/** Run the bounded search over @p m. */
ExploreReport explore(Model &m, const ExploreConfig &cfg);

/** How a single outcome fails against @p ref_digest ("" = passes). */
std::string failureKind(const RunOutcome &out,
                        std::uint64_t ref_digest);

} // namespace jetsim::mc

#endif // JETSIM_MC_EXPLORER_HH
