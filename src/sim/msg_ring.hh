/**
 * @file
 * MsgRing: bounded lock-free MPSC inbox for the sharded event core.
 *
 * Shape: a Vyukov-style bounded ring (per-cell sequence numbers, CAS
 * on the producer cursor) backed by an unbounded overflow path built
 * from arena-batched node blocks on a Treiber stack. Producers are
 * the shards posting to this inbox's shard; the single consumer is
 * whichever worker runs that shard, and it drains while producers
 * keep pushing. No mutex anywhere: a full ring diverts to the
 * overflow stack instead of blocking, because the consumer may be
 * waiting for the very producer that found the ring full.
 *
 * What one drain takes: every message whose push claimed its cell
 * before the drain read the producer cursor, and everything on the
 * overflow stack when the drain swapped it out. A push that claimed
 * its cell but has not published it yet is waited out (a few of the
 * producer's own instructions); later pushes wait for the next
 * drain. So a push that *happens before* a drain — the engine orders
 * them through the posting shard's published clock — is always
 * taken by it.
 *
 * Delivery order is deliberately unspecified: every message carries
 * its own deterministic dispatch key (when, priority, packed seq) and
 * lands in a binary heap, so the ring only has to hand messages over,
 * never to order them. That is what makes the LIFO overflow stack and
 * the FIFO ring freely mixable.
 *
 * ABA safety is structural, not tagged: each producer id owns a node
 * freelist that only pushes under that id pop, and no two pushes with
 * one id overlap while a drain may run (the engine's id is the
 * posting shard, which one worker runs at a time). Every freelist
 * then has a single popper, and a Treiber stack with one popper
 * cannot suffer ABA however many threads push onto it: the consumer
 * hands drained overflow nodes back to their owner's freelist
 * concurrently, and a producer minting a block donates only fresh
 * nodes. Without a drain running, pushes sharing an id may overlap:
 * their pops then race only each other, and nodes reach a freelist
 * only freshly minted, so no popped node can return to a freelist
 * under a stale snapshot.
 *
 * jetrace sees exactly what is here: std::atomic cells and cursors
 * (synchronisation is the type), zero capabilities, zero lock-graph
 * nodes.
 */

#ifndef JETSIM_SIM_MSG_RING_HH
#define JETSIM_SIM_MSG_RING_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>
#include <utility>

#include "core/hot_annotations.hh"
#include "sim/logging.hh"

namespace jetsim::sim {

/** Bounded lock-free MPSC queue with arena-batched overflow. */
template <typename T>
class MsgRing
{
  public:
    /** Nodes per overflow block: one malloc buys a batch, so a burst
     * past the ring costs ~1/64th of an allocation per message. */
    static constexpr std::size_t kBlockNodes = 64;

    /** @p producers: how many producer ids push() accepts, each with
     * its own overflow-node freelist. */
    explicit MsgRing(std::size_t capacity = 256, std::size_t producers = 1)
        : mask_(capacity - 1),
          cells_(new Cell[capacity]),
          free_(new std::atomic<Node *>[producers]),
          producers_(producers)
    {
        JETSIM_ASSERT(capacity >= 2 &&
                      (capacity & (capacity - 1)) == 0);
        JETSIM_ASSERT(producers >= 1);
        for (std::size_t i = 0; i < capacity; ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
        for (std::size_t p = 0; p < producers; ++p)
            free_[p].store(nullptr, std::memory_order_relaxed);
    }

    MsgRing(const MsgRing &) = delete;
    MsgRing &operator=(const MsgRing &) = delete;

    ~MsgRing()
    {
        // Quiescent by contract (engine teardown): drop anything
        // still queued, then release the arena blocks.
        drain([](T &&) {});
        delete[] cells_;
        delete[] free_;
        Block *b = blocks_.load(std::memory_order_relaxed);
        while (b != nullptr) {
            Block *next = b->next;
            delete b;
            b = next;
        }
    }

    std::size_t capacity() const { return mask_ + 1; }

    /**
     * Producer side; safe from any thread, concurrently with drain().
     * Never blocks, never fails: messages past the ring's capacity
     * take the overflow stack (counted in overflowed()). Two pushes
     * with the same @p producer id must not overlap while a drain
     * may run.
     */
    JETSIM_HOT void
    push(T v, std::size_t producer = 0)
    {
        std::size_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells_[pos & mask_];
            const std::size_t seq =
                cell.seq.load(std::memory_order_acquire);
            if (seq == pos) {
                // jethot: allow(hot-spin) Vyukov claim CAS: a retry means another producer claimed the cell — lock-free, not a wait loop
                if (tail_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                {
                    ::new (cell.storage()) T(std::move(v));
                    cell.seq.store(pos + 1,
                                   std::memory_order_release);
                    return;
                }
                // pos reloaded by the failed CAS; retry.
            } else if (seq < pos) {
                // Cell still holds an undrained message from a lap
                // ago: the ring is full. Divert — do not spin; the
                // consumer may be waiting on this very producer.
                pushOverflow(std::move(v), producer);
                return;
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Consumer side; one drain at a time, concurrently with push().
     * Invokes @p fn on every message taken (see the file comment), in
     * no particular order, and returns overflow nodes to their
     * owners' freelists.
     * @return messages delivered.
     */
    template <typename Fn>
    JETSIM_HOT std::size_t
    drain(Fn &&fn)
    {
        std::size_t n = 0;
        std::size_t pos = head_.load(std::memory_order_relaxed);
        const std::size_t end = tail_.load(std::memory_order_relaxed);
        for (; pos != end; ++pos) {
            Cell &cell = cells_[pos & mask_];
            // jethot: allow(hot-spin, hot-io) a claimed cell is published a few producer instructions later; yield only covers a producer preempted in between
            while (cell.seq.load(std::memory_order_acquire) != pos + 1)
                std::this_thread::yield();
            T *v = std::launder(
                reinterpret_cast<T *>(cell.storage()));
            fn(std::move(*v));
            v->~T();
            cell.seq.store(pos + capacity(),
                           std::memory_order_release);
            ++n;
        }
        head_.store(pos, std::memory_order_relaxed);

        Node *node =
            over_head_.exchange(nullptr, std::memory_order_acquire);
        while (node != nullptr) {
            Node *next = node->next.load(std::memory_order_relaxed);
            T *v = std::launder(
                reinterpret_cast<T *>(node->storage()));
            fn(std::move(*v));
            v->~T();
            pushFree(node, node, node->owner);
            node = next;
            ++n;
        }
        return n;
    }

    /** Lifetime count of messages that missed the ring. */
    std::uint64_t
    overflowed() const
    {
        return overflowed_.load(std::memory_order_relaxed);
    }

    /** Arena blocks allocated for the overflow path. */
    std::uint64_t
    blocksAllocated() const
    {
        return blocks_allocated_.load(std::memory_order_relaxed);
    }

  private:
    struct Cell
    {
        std::atomic<std::size_t> seq;
        alignas(T) unsigned char raw[sizeof(T)];
        void *storage() { return raw; }
    };

    struct Node
    {
        // Atomic: the consumer links a drained node onto its owner's
        // freelist while that owner may be reading the list's head.
        std::atomic<Node *> next{nullptr};
        std::size_t owner = 0; ///< producer id whose freelist it joins
        alignas(T) unsigned char raw[sizeof(T)];
        void *storage() { return raw; }
    };

    /** One arena batch; lives until the ring is destroyed. */
    struct Block
    {
        Block *next = nullptr;
        Node nodes[kBlockNodes];
    };

    /** Push the chain @p first .. @p last onto @p owner's freelist
     * (any thread: pushes never suffer ABA). */
    void
    pushFree(Node *first, Node *last, std::size_t owner)
    {
        std::atomic<Node *> &head = free_[owner];
        Node *h = head.load(std::memory_order_relaxed);
        do {
            last->next.store(h, std::memory_order_relaxed);
            // jethot: allow(hot-spin) Treiber push CAS: a retry means the owner popped or donated meanwhile — lock-free, not a wait loop
        } while (!head.compare_exchange_weak(
            h, first, std::memory_order_release,
            std::memory_order_relaxed));
    }

    /** Pop @p owner's freelist — only pushes under that id pop it. */
    Node *
    popFree(std::size_t owner)
    {
        std::atomic<Node *> &head = free_[owner];
        Node *n = head.load(std::memory_order_acquire);
        // jethot: allow(hot-spin) Treiber pop CAS: retries only when the consumer pushed a node meanwhile — lock-free progress, not waiting
        while (n != nullptr &&
               !head.compare_exchange_weak(
                   n, n->next.load(std::memory_order_relaxed),
                   std::memory_order_acquire,
                   std::memory_order_acquire))
        {
        }
        return n;
    }

    JETSIM_COLD_OK("ring-full overflow: one malloc buys a 64-node arena block, counted by overflowed()/blocksAllocated()")
    void
    pushOverflow(T v, std::size_t producer)
    {
        JETSIM_ASSERT(producer < producers_);
        overflowed_.fetch_add(1, std::memory_order_relaxed);
        Node *node = popFree(producer);
        if (node == nullptr) {
            // Freelist dry: buy a block, keep one node, donate the
            // rest to this producer's freelist.
            Block *blk = new Block;
            blocks_allocated_.fetch_add(1,
                                        std::memory_order_relaxed);
            Block *bh = blocks_.load(std::memory_order_relaxed);
            do {
                blk->next = bh;
            } while (!blocks_.compare_exchange_weak(
                bh, blk, std::memory_order_release,
                std::memory_order_relaxed));
            for (Node &nd : blk->nodes)
                nd.owner = producer;
            node = &blk->nodes[0];
            for (std::size_t i = 2; i < kBlockNodes; ++i)
                blk->nodes[i - 1].next.store(
                    &blk->nodes[i], std::memory_order_relaxed);
            pushFree(&blk->nodes[1], &blk->nodes[kBlockNodes - 1],
                     producer);
        }
        ::new (node->storage()) T(std::move(v));
        Node *oh = over_head_.load(std::memory_order_relaxed);
        do {
            node->next.store(oh, std::memory_order_relaxed);
        } while (!over_head_.compare_exchange_weak(
            oh, node, std::memory_order_release,
            std::memory_order_relaxed));
    }

    const std::size_t mask_;
    Cell *const cells_;
    std::atomic<Node *> *const free_; ///< one freelist per producer id
    const std::size_t producers_;
    alignas(64) std::atomic<std::size_t> tail_{0}; ///< producers
    alignas(64) std::atomic<std::size_t> head_{0}; ///< consumer
    alignas(64) std::atomic<Node *> over_head_{nullptr};
    std::atomic<Block *> blocks_{nullptr};
    std::atomic<std::uint64_t> overflowed_{0};
    std::atomic<std::uint64_t> blocks_allocated_{0};
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_MSG_RING_HH
