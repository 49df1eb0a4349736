/**
 * @file
 * Nondeterministic-choice points for controlled scheduling.
 *
 * The simulator is deterministic by construction: every arbitration —
 * same-tick event ties, the GPU channel rotation, the OS run-queue
 * pick — resolves to one fixed "default" alternative. That is the
 * right behaviour for profiling runs, but it means only a single
 * interleaving of a concurrent deployment is ever exercised.
 *
 * A Chooser makes those arbitration points explicit. When one is
 * installed on an EventQueue (the composition root every component
 * reaches through its Board), each arbitration site with two or more
 * legal alternatives asks the chooser which branch to take instead of
 * silently taking the default. The model checker (src/mc) installs a
 * trace-recording chooser and exhaustively explores the branch tree;
 * replaying a recorded choice script reproduces any interleaving
 * bit-for-bit.
 *
 * Contract for every site:
 *  - alternative 0 IS the default: a chooser that always returns 0
 *    must reproduce uncontrolled scheduling exactly, and when no
 *    chooser is installed the site must not even construct the
 *    alternative list (the hot path pays one null check);
 *  - alternatives carry an *actor* id identifying the model entity
 *    the branch would schedule (GPU channel index, interned thread
 *    name id); kActorUnknown when no entity is attributable (event
 *    ties between opaque callbacks). Actor ids feed the checker's
 *    independence relation, so they must be stable across runs of
 *    the same configuration.
 */

#ifndef JETSIM_SIM_CHOICE_HH
#define JETSIM_SIM_CHOICE_HH

#include <cstdint>

namespace jetsim::sim {

/** Which arbitration site is asking. */
enum class ChoiceKind : std::uint8_t {
    EventTie = 0,    ///< same-(tick,priority) event-queue tie break
    GpuChannel = 1,  ///< GpuEngine time-slice channel rotation
    CpuRunQueue = 2, ///< OsScheduler run-queue head pick
    ShardMerge = 3,  ///< ShardedEngine cross-shard same-(tick,
                     ///< priority) merge pick (serial-merge fallback)
};

/** Actor id when the alternative has no attributable model entity. */
inline constexpr std::int64_t kActorUnknown = -1;

/** Arbitration sites never offer more alternatives than this. */
inline constexpr int kMaxChoiceAlts = 8;

/**
 * Decision callback for controlled scheduling. Implementations live
 * in src/mc; the simulator only ever calls choose() from arbitration
 * sites with n >= 2 genuinely distinct alternatives.
 */
// jethot: boundary(choose) controlled-scheduling hook: a Chooser is only installed under jetmc, whose harness audits its own choose() implementations; steady-state serving never reaches one
class Chooser
{
  public:
    virtual ~Chooser() = default;

    /**
     * Pick one of @p n alternatives at a @p kind site. @p actors has
     * one entry per alternative (kActorUnknown when untagged);
     * alternative 0 is the default. Must return a value in [0, n).
     */
    virtual int choose(ChoiceKind kind, const std::int64_t *actors,
                       int n) = 0;
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_CHOICE_HH
