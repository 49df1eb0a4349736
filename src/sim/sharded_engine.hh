/**
 * @file
 * ShardedEngine: conservative-lookahead parallel event core.
 *
 * One EventQueue *shard* per device (or device group). Device stacks
 * share no mutable state across shards, so the only cross-shard edges
 * are explicit messages — request arrivals, balancer decisions,
 * future net:: hops — posted through post() with a minimum latency.
 * That latency is the *lookahead* L of classic conservative
 * (Chandy–Misra–Bryant-style) parallel discrete-event simulation, and
 * it drives an epoch loop:
 *
 *   1. deliver buffered cross-shard messages into their destination
 *      shards' heaps (skipped outright when the pending counter is
 *      zero);
 *   2. one linear pass over *cached* per-shard next-event times
 *      yields gmin (over all shards), gmin_post (over the *posters*:
 *      shards that own a cross-shard source port), the poster that
 *      holds gmin_post (the lead) and the runner-up poster time;
 *   3. two horizons. Receivers (every shard but the lead) run to
 *      min(target + 1, gmin_post + L): nothing posted this epoch can
 *      land before it, because every post originates on a poster
 *      whose events all run at when >= gmin_post. The lead receives
 *      only from the *other* posters, so it runs to one lookahead
 *      past the earliest tick another poster could act — its next
 *      event, or the lead's own earliest post landing there — and a
 *      lone poster only to kRunAheadWindows lookaheads past the
 *      receivers' horizon. Receivers then trail the lead by one
 *      epoch, and each epoch *fuses many lookahead windows*
 *      (adaptive epoch batching; Options::batch_windows caps or
 *      disables the fusion);
 *   4. every shard whose cached next event is below its horizon runs
 *      in parallel — idle shards are skipped without touching their
 *      queues — with outbound posts pushed onto per-shard lock-free
 *      MPSC rings (sim::MsgRing);
 *   5. a sense-reversing barrier; repeat.
 *
 * Determinism is *bit-identical* to the serial engine at any
 * shard/thread count, by construction rather than by luck:
 *  - within a shard, dispatch order is the packed (when, priority,
 *    seq) key order of EventQueue — unchanged;
 *  - cross-shard messages carry an explicit seq in the reserved low
 *    band (EventQueue::kMessageSeqLimit), packed from (source port,
 *    per-port counter): a pure function of simulation content, never
 *    of epoch boundaries, worker assignment or delivery timing — so
 *    a message delivered an epoch early (a run-ahead lead's) keeps
 *    its dispatch key;
 *  - events on *different* shards never touch shared state, so their
 *    relative order across shards cannot affect any observable — the
 *    same independence argument jetmc's partial-order reduction is
 *    built on (DESIGN.md §4i has the proof sketch).
 *
 * With lookahead 0 (or a Chooser installed) the engine falls back to
 * a serial cross-shard merge: repeatedly execute the globally
 * smallest key, cross-shard same-(when,priority) ties resolved
 * deterministically by (seq, shard) — or exposed to the model checker
 * as ChoiceKind::ShardMerge arbitration points. Digests from the
 * merge path equal the epoch path's for the same reason as above.
 *
 * Locking contract (jetrace, DESIGN.md §4h): there is none to state —
 * the engine's hot path owns no mutex at all. The inbox is a bounded
 * lock-free ring with arena-batched overflow blocks, the barrier is
 * two sense-reversing atomics, and the per-shard next-event cache is
 * a relaxed atomic published through the barrier. The hot
 * path is allocation-free at steady state: each shard reuses its slab
 * EventPool, and ring cells / overflow node blocks are recycled
 * across epochs.
 */

#ifndef JETSIM_SIM_SHARDED_ENGINE_HH
#define JETSIM_SIM_SHARDED_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/msg_ring.hh"

namespace jetsim::sim {

/** Parallel event core: one EventQueue shard per device group. */
class ShardedEngine
{
  public:
    /** Ports (message sources) fit the 15-bit lane of the packed
     * message seq; counters per port fit the low 32 bits. */
    static constexpr int kMaxPorts = 1 << 15;

    struct Options
    {
        /** Event-queue shards (>= 1). */
        int shards = 1;
        /** Worker threads for the epoch phase; 1 = in-caller. Capped
         * at the shard count (spare workers would idle). */
        int threads = 1;
        /**
         * Conservative lookahead: the minimum delay of every
         * cross-shard post. 0 selects the serial-merge fallback —
         * bit-identical results, no parallelism. Ignored (treated as
         * 0) while a Chooser is installed: controlled runs are
         * single-threaded and branch at merge ties.
         */
        Tick lookahead = 0;
        /**
         * Adaptive epoch batching cap: how many lookahead windows past
         * gmin one epoch may run when the port map proves it safe
         * (receivers to gmin_post + L, the lead poster further). 0 =
         * no cap beyond the port map's (default), 1 = classic
         * single-window epochs for every shard, N = at most N windows
         * per barrier. Any value yields bit-identical digests; the
         * knob only trades barriers for window size.
         */
        std::uint64_t batch_windows = 0;
        /** Per-shard inbox ring capacity (power of two); bursts past
         * it take the arena-batched overflow path, never a lock. */
        std::size_t inbox_capacity = 256;
    };

    /** Epoch / message / merge counters (see stats()). */
    struct Stats
    {
        int shards = 0;
        int threads = 0;
        Tick lookahead = 0;
        std::uint64_t epochs = 0;      ///< parallel-phase rounds
        std::uint64_t barriers = 0;    ///< barrier crossings (2/epoch
                                       ///< when threads > 1)
        std::uint64_t merge_steps = 0; ///< serial-merge dispatches
        std::uint64_t messages = 0;    ///< lifetime post() count
        std::uint64_t executed = 0;    ///< events over all shards
        std::uint64_t max_inbox = 0;   ///< deepest drain observed
        std::uint64_t ring_overflow = 0; ///< posts past the ring
    };

    explicit ShardedEngine(Options opts);
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    int shards() const { return static_cast<int>(shards_.size()); }
    int threads() const { return threads_; }
    Tick lookahead() const { return lookahead_; }

    /** Shard @p s's queue: the composition root for the boards mapped
     * to that shard (soc::ShardMap). */
    EventQueue &shard(int s);

    /**
     * Register a message source living on shard @p shard_idx; the
     * returned port id feeds post(). Ports are allocated before the
     * run starts (registration is not thread-safe) and their order is
     * part of the deterministic merge: lower ports win
     * message-message ties at equal (when, priority).
     *
     * A @p local_only port may post only to its own shard (min delay
     * one tick instead of the lookahead) and — crucially for adaptive
     * epoch batching — does not mark the shard as a cross-shard
     * poster, so its events never shrink the fused horizon. Fleet
     * sub-balancers are the canonical user: the root->sub hop crosses
     * shards, the sub->device hop is a local_only message.
     */
    int addPort(int shard_idx, bool local_only = false);

    /**
     * Post a cross-shard message: run @p cb on shard @p dst_shard at
     * absolute tick @p when. Must be called from @p src_port's own
     * shard (its executing callbacks), with
     * when >= src now + max(1, lookahead) — the conservative bound
     * that makes the epoch horizon safe (local_only ports: one tick).
     * Safe to call concurrently from distinct shards during the
     * parallel phase; delivery is deferred to the next epoch boundary
     * (same-shard posts insert directly).
     */
    void post(int src_port, int dst_shard, Tick when,
              EventQueue::Callback cb,
              int priority = EventQueue::kPriDefault);

    /**
     * Run every shard up to and including @p target, then advance all
     * shard clocks to exactly @p target (mirrors
     * EventQueue::runUntil). Callable repeatedly with increasing
     * targets — the profiler's warmup / measure / extend loop works
     * unchanged. @return events executed across all shards.
     */
    std::uint64_t runUntil(Tick target);

    /** Run until every shard drains (or @p max_events executed). */
    std::uint64_t runAll(std::uint64_t max_events = UINT64_MAX);

    /** Smallest pending event time across shards; false when all
     * shards (and inboxes) are empty. */
    bool nextEventTime(Tick &when);

    /**
     * Install @p c on every shard queue *and* the cross-shard merge
     * tie sites — forces the serial-merge path so the model checker
     * sees ShardMerge branch points. nullptr restores epoch
     * scheduling.
     */
    void setChooser(Chooser *c);

    Stats stats() const;

  private:
    /**
     * How many lookahead windows a lone poster may run past the
     * receivers' horizon. Its posts wait in the receivers' inboxes
     * until they catch up, so the cap bounds that backlog: on the
     * 1000-board fleet 32 windows cut the epochs from 4,157 to ~150,
     * and an unbounded lead (4 epochs) grew peak RSS by a third and
     * made the run phase allocate ring overflow blocks.
     */
    static constexpr std::uint64_t kRunAheadWindows = 32;

    /** One buffered cross-shard message. */
    struct Msg
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        EventQueue::Callback cb;
    };

    /**
     * A shard: queue + lock-free inbox + cached next-event time.
     * next_when is kTickMax when the queue looked empty; it may run
     * *early* (a cancelled event leaves it stale-low, which costs at
     * most one wasted peek) but never late — every insertion path
     * min-updates it, and the owning worker refreshes it after each
     * slice, published to the coordinator through the barrier. Padded
     * so two workers' hot shards never share a cache line.
     */
    struct alignas(64) Shard
    {
        explicit Shard(std::size_t inbox_capacity)
            : inbox(inbox_capacity)
        {
        }
        EventQueue eq;
        MsgRing<Msg> inbox;
        std::atomic<Tick> next_when{kTickMax};
        /** Owns >= 1 non-local port (a *poster*): only these shards
         * can shrink the fused epoch horizon (gmin_post). */
        bool posts = false;
    };

    /** One linear pass's minima over the cached next_when. */
    struct Mins
    {
        Tick all = kTickMax;   ///< gmin: earliest work anywhere
        Tick post = kTickMax;  ///< gmin_post: earliest poster event
        Tick post2 = kTickMax; ///< earliest of the other posters
        int lead = -1;         ///< the poster holding gmin_post
    };

    /** An epoch's horizons: every shard runs its events below
     * @c horizon, except shard @c lead, which runs below
     * @c lead_horizon (>= horizon). */
    struct Horizons
    {
        Tick horizon = 0;
        Tick lead_horizon = 0;
        int lead = -1;
    };

    /** Sense-reversing barrier half (one for epoch start, one for
     * epoch end). No locks, no condvars: an atomic arrival count and
     * a flip-flopping sense flag each thread tracks locally. */
    struct alignas(64) Barrier
    {
        std::atomic<int> count{0};
        std::atomic<bool> sense{false};
    };

    void deliverInboxes();
    void refreshCache(Shard &sh);
    void refreshAll();
    Mins reduceMins() const;
    std::uint64_t runEpochs(Tick target);
    std::uint64_t runMerge(Tick target);
    bool mergeOne(Tick target);
    void barrierArrive(Barrier &b, bool &local_sense);
    void startWorkers();
    void stopWorkers();
    void workerLoop(int worker);
    std::uint64_t runShardSlice(int worker, const Horizons &h);

    std::vector<std::unique_ptr<Shard>> shards_;
    int threads_ = 1;
    Tick lookahead_ = 0;
    /** batch_windows * L (kTickMax when uncapped) and
     * kRunAheadWindows * L, saturated once at construction. */
    Tick batch_span_ = kTickMax;
    Tick run_ahead_ = kTickMax;
    int posters_ = 0; ///< shards with Shard::posts set
    Chooser *chooser_ = nullptr;

    /** Port registry: port id -> (shard, local_only), plus the
     * per-port message counters. Counters are written only from the
     * port's own shard (one thread per epoch), read at quiescent
     * points. */
    std::vector<int> port_shard_;
    std::vector<bool> port_local_;
    std::vector<std::uint32_t> port_count_;

    std::uint64_t epochs_ = 0;
    std::uint64_t barriers_ = 0;
    std::uint64_t merge_steps_ = 0;
    std::uint64_t max_inbox_ = 0;

    /** Buffered (ring) messages not yet delivered; exact at the
     * quiescent points where it is read, letting the epoch loop skip
     * the delivery sweep entirely when nothing is in flight. */
    std::atomic<std::uint64_t> msgs_pending_{0};

    /** @name Epoch workers (lock-free coordination)
     * The coordinator writes horizons_, crosses the start barrier
     * with the workers (its release/acquire pair publishes them),
     * runs its own slice, and meets them again at the end barrier.
     * Workers check stop_ right after the start barrier, so shutdown
     * is one extra crossing. jetrace's graph over the engine has no
     * lock nodes at all.
     * @{ */
    std::vector<std::thread> workers_;
    Barrier start_;
    Barrier end_;
    bool start_sense_ = false; ///< coordinator-local senses
    bool end_sense_ = false;
    Horizons horizons_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> executed_parallel_{0};
    /** @} */
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_SHARDED_ENGINE_HH
