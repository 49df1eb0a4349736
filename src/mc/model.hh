/**
 * @file
 * The checkable-system interface jetmc explores.
 *
 * A Model is anything that can execute one complete, terminating run
 * of a closed system under a choice script and report what happened.
 * Runs must be pure functions of the script: same script, same
 * RunOutcome, bit for bit. The checker (explorer.hh) owns the search;
 * the model owns the semantics — including the two ingredients the
 * partial-order reduction needs:
 *
 *  - a mapping from arbitration-site actor tags to *process indices*
 *    (the unit of independence), and
 *  - the dependence relation between processes: for real
 *    deployments two processes are independent exactly when they
 *    touch disjoint device memory, which each TensorRT process's
 *    private stream and buffers guarantee, so swapping adjacent
 *    scheduling actions of the two cannot change any reachable
 *    logical state.
 */

#ifndef JETSIM_MC_MODEL_HH
#define JETSIM_MC_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mc/trace.hh"

namespace jetsim::mc {

/** Everything one controlled run produces. */
struct RunOutcome
{
    /** Every arbitration site hit, in execution order. */
    std::vector<ChoiceRec> trace;

    /** Queue drained before the closed workload completed. */
    bool deadlock = false;

    /** Event budget exhausted before quiescence (config too large —
     * not a verdict about the system). */
    bool bound_exceeded = false;

    /** JetSan violations reported during the run. */
    std::uint64_t violations = 0;

    /**
     * Logical digest: folds only schedule-invariant facts (per-process
     * completion counts, per-channel FIFO kernel sequences, memory
     * balance, violation count) — never timing. Equal across all
     * interleavings iff the model's observable results are
     * schedule-independent.
     */
    std::uint64_t digest = 0;

    /** Per-process worst observed blocking (ms); timing, so reported
     * as a bound over explored schedules, not an invariant. */
    std::vector<double> max_block_ms;

    /** Events executed (diagnostic). */
    std::uint64_t events = 0;

    /** Human-readable diagnosis of a deadlock/violation, if any. */
    std::string detail;
};

/** Process index when an actor tag cannot be attributed. */
inline constexpr int kProcUnknown = -1;

/** A closed system the explorer can run under a script. */
class Model
{
  public:
    virtual ~Model() = default;

    /** Short identity for reports and counterexample files. */
    virtual std::string name() const = 0;

    /** Execute one full run under @p script (deterministic). */
    virtual RunOutcome run(const std::vector<int> &script) = 0;

    /** Number of processes (for report shapes). */
    virtual int procCount() const = 0;

    /** Map an arbitration actor tag to a process index, or
     * kProcUnknown when the tag identifies no single process. */
    virtual int procOf(sim::ChoiceKind kind,
                       std::int64_t actor) const = 0;

    /**
     * May scheduling actions of processes @p pa and @p pb fail to
     * commute? Called with valid indices only; the explorer treats
     * kProcUnknown as dependent on everything.
     */
    virtual bool dependent(int pa, int pb) const = 0;
};

} // namespace jetsim::mc

#endif // JETSIM_MC_MODEL_HH
