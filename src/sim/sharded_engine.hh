/**
 * @file
 * ShardedEngine: conservative-lookahead parallel event core.
 *
 * One EventQueue *shard* per device (or device group). Device stacks
 * share no mutable state across shards, so the only cross-shard edges
 * are explicit messages — request arrivals, balancer decisions,
 * future net:: hops — posted through post() with a minimum latency.
 * That latency is the *lookahead* L of classic conservative
 * (Chandy–Misra–Bryant-style) parallel discrete-event simulation.
 * There are no epochs and no global barrier: every shard keeps its
 * own clock and advances on the published clocks of the shards that
 * can post to it.
 *
 *  - A shard's clock, done_until, says that every event below it has
 *    run and every post those events made is in the poster's outbox
 *    to its destination. It is published with a release store.
 *  - Only *posters* — shards owning a cross-shard source port — can
 *    post to another shard, and a poster's events all run at
 *    when >= its clock, so nothing it posts later lands before its
 *    clock + L. A shard's horizon is therefore the smallest of
 *    target + 1 and every *other* poster's clock + L; a poster is
 *    also held to kRunAheadWindows lookaheads past every other
 *    shard's clock, which bounds the posts waiting in its outboxes.
 *  - A worker claims a shard whose clock is below its horizon, reads
 *    the clocks (acquire), drains every poster's outbox to that shard
 *    into its heap, runs it towards the horizon — at most
 *    kSliceWindows lookaheads past its next event, so shards
 *    interleave — and publishes the new clock. Posters go first;
 *    each worker prefers its own shards (s % threads == w) and takes
 *    another only when none of its own can run; with nothing
 *    runnable it yields.
 *  - The shard with the smallest clock always has a horizon above
 *    it, so some shard can always run: no deadlock, no global wait.
 *
 * Determinism is *bit-identical* to the serial engine at any
 * shard/thread count, by construction rather than by luck:
 *  - within a shard, dispatch order is the packed (when, priority,
 *    seq) key order of EventQueue — unchanged;
 *  - cross-shard messages carry an explicit seq in the reserved low
 *    band (EventQueue::kMessageSeqLimit), packed from (source port,
 *    per-port counter): a pure function of simulation content, never
 *    of clock values, worker assignment or delivery timing — so a
 *    message drained early (a run-ahead poster's) keeps its dispatch
 *    key;
 *  - a message below a shard's horizon is in an outbox to it before
 *    the clock that admits that horizon is published, so it is always
 *    in the heap before the shard runs past it;
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
 * merge path equal the clock path's for the same reason as above.
 *
 * Locking contract (jetrace, DESIGN.md §4h): there is none to state —
 * the engine's hot path owns no mutex at all. Each poster owns one
 * single-producer/single-consumer Outbox per other shard; a shard is
 * claimed with one atomic exchange, which hands over both its heap
 * and its outboxes' producer and consumer roles, and clocks are
 * release/acquire atomics. Workers park between runs on an atomic
 * wait. The hot path is allocation-free at steady state: each shard's
 * queue reuses its callback slots, and each outbox reuses drained
 * nodes.
 *
 * Between runs the same workers take per-shard jobs (forEachShard):
 * each runs the shards it owns in the clock loop, so what a shard's
 * events touch is built, read and freed by the thread that runs them.
 */

#ifndef JETSIM_SIM_SHARDED_ENGINE_HH
#define JETSIM_SIM_SHARDED_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/outbox.hh"

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
        /** Worker threads for the clock loop and forEachShard; 1 =
         * in-caller. Capped at the shard count (spare workers would
         * idle). */
        int threads = 1;
        /**
         * Conservative lookahead: the minimum delay of every
         * cross-shard post. 0 selects the serial-merge fallback —
         * bit-identical results, no parallelism. Ignored (treated as
         * 0) while a Chooser is installed: controlled runs are
         * single-threaded and branch at merge ties.
         */
        Tick lookahead = 0;
    };

    /** Clock / message / merge counters (see stats()). */
    struct Stats
    {
        int shards = 0;
        int threads = 0;
        Tick lookahead = 0;
        /** How often the smallest clock over all shards rose: the
         * slowest shard's clock advanced. */
        std::uint64_t epochs = 0;
        /** How often a worker found no shard it could run and
         * yielded (0 on one thread: the slowest shard can always
         * run). */
        std::uint64_t barriers = 0;
        std::uint64_t merge_steps = 0; ///< serial-merge dispatches
        std::uint64_t messages = 0;    ///< lifetime post() count
        std::uint64_t executed = 0;    ///< events over all shards
        std::uint64_t max_inbox = 0;   ///< deepest drain observed
    };

    explicit ShardedEngine(Options opts);
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    int shards() const { return static_cast<int>(shards_.size()); }
    int threads() const { return threads_; }

    /** Shard @p s's queue: the composition root for the boards mapped
     * to that shard (soc::ShardMap). */
    EventQueue &shard(int s);

    /**
     * Register a message source living on shard @p shard_idx; the
     * returned port id feeds post(). Ports are allocated before the
     * run starts (registration is not thread-safe) and their order is
     * part of the deterministic merge: lower ports win
     * message-message ties at equal (when, priority). The shard's
     * first non-local port creates its outboxes, one per other shard.
     *
     * A @p local_only port may post only to its own shard (min delay
     * one tick instead of the lookahead) and — crucially for the
     * clock protocol — does not make the shard a poster, so its
     * events never hold back another shard's horizon. Fleet
     * sub-balancers are the canonical user: the root->sub hop crosses
     * shards, the sub->device hop is a local_only message.
     */
    int addPort(int shard_idx, bool local_only = false);

    /**
     * Post a cross-shard message: run @p cb on shard @p dst_shard at
     * absolute tick @p when. Must be called from @p src_port's own
     * shard (its executing callbacks), with
     * when >= src now + max(1, lookahead) — the conservative bound
     * that makes the horizons safe (local_only ports: one tick). Safe
     * to call concurrently from distinct shards while workers run:
     * the post goes into the source shard's outbox to @p dst_shard,
     * which the destination drains at its next slice (same-shard
     * posts, and every post while only the caller runs shards, insert
     * directly).
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

    /**
     * Call @p fn(s) once for every shard s and return when every call
     * has returned. Each call runs on the worker that owns s in the
     * clock loop (s % threads() == w, the caller being worker 0),
     * shards that share a worker in increasing order. With one
     * thread, or a Chooser installed, every call runs on the caller,
     * in shard order. @p fn(s) may touch shard s's queue and what
     * lives only on shard s, and must not post(). Callable before the
     * first run, between runs and after the last, never from inside
     * a run or from @p fn. An exception out of @p fn terminates, as
     * it would on a worker.
     */
    void forEachShard(const std::function<void(int)> &fn) noexcept;

    /** Smallest pending event time across shards; false when all
     * shards (and outboxes) are empty. */
    bool nextEventTime(Tick &when);

    /**
     * Install @p c on every shard queue *and* the cross-shard merge
     * tie sites — forces the serial-merge path so the model checker
     * sees ShardMerge branch points. nullptr restores the clock
     * loop.
     */
    void setChooser(Chooser *c);

    Stats stats() const;

  private:
    /**
     * How many lookahead windows a poster may run past the slowest
     * other shard. Its posts wait in its outboxes until the receivers
     * catch up, so the bound caps that backlog: on the 1000-board
     * fleet 32 windows keep every outbox inside its first 64-node
     * block (the deepest drain is 13-14), while an unbounded poster
     * grew peak RSS by a third and made the run phase allocate.
     */
    static constexpr std::uint64_t kRunAheadWindows = 32;

    /**
     * How many lookahead windows past its next event one slice may
     * run a shard. Short slices let the shards' clocks interleave, so
     * no worker waits long for a poster's clock; on the 1000-board
     * fleet (16 shards, 4 threads) 8 windows timed best of 4, 8, 16
     * and 32 (DESIGN.md §4i has the table).
     */
    static constexpr std::uint64_t kSliceWindows = 8;

    /** One buffered cross-shard message. */
    struct Msg
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        EventQueue::Callback cb;
    };

    /**
     * A shard: queue + outboxes + clock. Everything but the atomics
     * is touched only by the worker holding the claim (busy) or at
     * quiescent points, ordered by the claim's acquire/release: the
     * claim makes its holder the producer of this shard's outboxes
     * and the consumer of every outbox addressed to it. Padded so two
     * workers' hot shards never share a cache line.
     */
    struct alignas(64) Shard
    {
        EventQueue eq;
        /** Every event below it has run and its posts are in its
         * outboxes (release store; readers acquire). Other workers
         * poll it, so it opens a cache line of its own, away from the
         * queue's per-event counters. */
        alignas(64) std::atomic<Tick> done_until{0};
        /** Claimed by a worker for one slice. */
        std::atomic<bool> busy{false};
        /** One outbox per destination shard (null for this one);
         * empty unless the shard owns a non-local port. Pollers read
         * it through posts(), so it shares the clock's line. */
        std::vector<std::unique_ptr<Outbox<Msg>>> out;
        std::uint64_t max_inbox = 0; ///< deepest drain into this heap
        /** Owns >= 1 non-local port (a *poster*): only these shards
         * bound another shard's horizon. */
        bool posts() const { return !out.empty(); }
    };

    /** A worker's counters for one run, added up when it ends. */
    struct RunCounts
    {
        std::uint64_t epochs = 0;
        std::uint64_t idle = 0;
    };

    void settle(int s);
    std::uint64_t executedTotal() const;
    std::uint64_t runClocks(Tick target);
    void runShards(int worker, Tick cap);
    bool runNext(int worker, bool own, Tick cap, RunCounts &counts,
                 int &unfinished);
    bool ownerBusyElsewhere(int s) const;
    bool runSlice(int s, Tick cap, RunCounts &counts);
    void raiseFloor(RunCounts &counts);
    Tick horizon(int s, Tick cap) const;
    std::uint64_t runMerge(Tick target);
    bool mergeOne(Tick target);
    void startWorkers();
    void wakeWorkers();
    void waitForWorkers();
    void workerLoop(int worker, std::uint32_t seen);
    void runJob(int worker);

    std::vector<std::unique_ptr<Shard>> shards_;
    int threads_ = 1;
    Tick lookahead_ = 0;
    /** kRunAheadWindows * L and kSliceWindows * L, saturated once at
     * construction. */
    Tick run_ahead_ = kTickMax;
    Tick slice_span_ = kTickMax;
    Chooser *chooser_ = nullptr;

    /** Port registry: port id -> (shard, local_only), plus the
     * per-port message counters. Counters are written only from the
     * port's own shard (one worker at a time), read at quiescent
     * points. */
    std::vector<int> port_shard_;
    std::vector<bool> port_local_;
    std::vector<std::uint32_t> port_count_;

    std::uint64_t merge_steps_ = 0;
    /** Smallest clock over all shards, as last raised by a slice. */
    std::atomic<Tick> floor_{0};
    std::atomic<std::uint64_t> epochs_{0};
    std::atomic<std::uint64_t> barriers_{0};

    /** @name Workers
     * Spawned at the first parallel run or forEachShard and parked on
     * run_gen_ between rounds. The caller writes run_cap_ or job_
     * (and stop_), bumps run_gen_ (release) to start a round, works
     * as worker 0, and waits for running_ to reach zero. jetrace's
     * graph over the engine has no lock nodes at all.
     * @{ */
    std::vector<std::thread> workers_;
    std::atomic<std::uint32_t> run_gen_{0};
    std::atomic<int> running_{0};
    Tick run_cap_ = 0;
    /** forEachShard's function for this round; null in a clock run. */
    const std::function<void(int)> *job_ = nullptr;
    bool stop_ = false;
    /** True while workers run shards: cross-shard posts must take
     * the outboxes. Written only while no worker runs. */
    bool parallel_ = false;
    /** @} */
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_SHARDED_ENGINE_HH
