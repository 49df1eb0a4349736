/**
 * @file
 * MsgRing: bounded lock-free MPSC inbox for the sharded event core.
 *
 * Shape: a Vyukov-style bounded ring (per-cell sequence numbers, CAS
 * on the producer cursor) backed by an unbounded overflow path built
 * from arena-batched node blocks on a Treiber stack. Producers are
 * the shards executing an epoch in parallel; the single consumer is
 * the engine coordinator draining at quiescent points (epoch
 * boundaries, behind the barrier). No mutex anywhere: a full ring
 * diverts to the overflow stack instead of blocking, because the
 * consumer only drains *between* epochs — a producer spinning on a
 * full ring would deadlock against a consumer that is itself parked
 * at the barrier waiting for that producer.
 *
 * Delivery order is deliberately unspecified: every message carries
 * its own deterministic dispatch key (when, priority, packed seq) and
 * lands in a binary heap, so the ring only has to hand messages over,
 * never to order them. That is what makes the LIFO overflow stack and
 * the FIFO ring freely mixable.
 *
 * ABA safety is structural, not tagged: producers may *pop* the node
 * freelist and *push* the overflow stack during the parallel phase;
 * the consumer *pushes* the freelist and *pops* the overflow stack
 * only at quiescent points (no producer running). A node can
 * therefore never be recycled back onto the freelist while a
 * concurrent pop holds a stale snapshot of it, and Treiber pushes are
 * ABA-immune by construction. Fresh nodes entering the freelist
 * mid-phase come only from newly malloc'd blocks, which by definition
 * were never observed before.
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

    explicit MsgRing(std::size_t capacity = 256)
        : mask_(capacity - 1),
          cells_(new Cell[capacity])
    {
        JETSIM_ASSERT(capacity >= 2 &&
                      (capacity & (capacity - 1)) == 0);
        for (std::size_t i = 0; i < capacity; ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    MsgRing(const MsgRing &) = delete;
    MsgRing &operator=(const MsgRing &) = delete;

    ~MsgRing()
    {
        // Quiescent by contract (engine teardown): drop anything
        // still queued, then release the arena blocks.
        drain([](T &&) {});
        delete[] cells_;
        Block *b = blocks_.load(std::memory_order_relaxed);
        while (b != nullptr) {
            Block *next = b->next;
            delete b;
            b = next;
        }
    }

    std::size_t capacity() const { return mask_ + 1; }

    /**
     * Producer side; safe from any thread. Never blocks, never
     * fails: messages past the ring's capacity take the overflow
     * stack (counted in overflowed()).
     */
    JETSIM_HOT void
    push(T v)
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
                // consumer only drains between epochs.
                pushOverflow(std::move(v));
                return;
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Consumer side; single-threaded, quiescent points only (no
     * producer running — the engine's barrier provides this).
     * Invokes @p fn on every queued message, in no particular order,
     * and recycles overflow nodes onto the freelist.
     * @return messages delivered.
     */
    template <typename Fn>
    JETSIM_HOT std::size_t
    drain(Fn &&fn)
    {
        std::size_t n = 0;
        std::size_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells_[pos & mask_];
            if (cell.seq.load(std::memory_order_acquire) != pos + 1)
                break;
            T *v = std::launder(
                reinterpret_cast<T *>(cell.storage()));
            fn(std::move(*v));
            v->~T();
            cell.seq.store(pos + capacity(),
                           std::memory_order_release);
            ++pos;
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
            // Quiescent: no producer is popping, a plain splice is
            // race-free (still via atomics for the tooling's sake).
            node->next.store(
                free_head_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
            free_head_.store(node, std::memory_order_release);
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
        // Atomic: a producer losing the freelist-pop race reads a
        // stale next pointer while the winner is already relinking
        // the node onto the overflow stack. The stale value is
        // discarded (the CAS fails), but the read itself must be
        // atomic to be defined.
        std::atomic<Node *> next{nullptr};
        alignas(T) unsigned char raw[sizeof(T)];
        void *storage() { return raw; }
    };

    /** One arena batch; lives until the ring is destroyed. */
    struct Block
    {
        Block *next = nullptr;
        Node nodes[kBlockNodes];
    };

    Node *
    popFree()
    {
        Node *n = free_head_.load(std::memory_order_acquire);
        // jethot: allow(hot-spin) Treiber pop CAS: retries only when another producer popped first — lock-free progress, not waiting
        while (n != nullptr &&
               !free_head_.compare_exchange_weak(
                   n, n->next.load(std::memory_order_relaxed),
                   std::memory_order_acquire,
                   std::memory_order_acquire))
        {
        }
        return n;
    }

    JETSIM_COLD_OK("ring-full overflow: one malloc buys a 64-node arena block, counted by overflowed()/blocksAllocated()")
    void
    pushOverflow(T v)
    {
        overflowed_.fetch_add(1, std::memory_order_relaxed);
        Node *node = popFree();
        if (node == nullptr) {
            // Freelist dry: buy a block, keep one node, donate the
            // rest. The donated chain is fresh memory, so concurrent
            // freelist pops can never hold a stale view of it.
            Block *blk = new Block;
            blocks_allocated_.fetch_add(1,
                                        std::memory_order_relaxed);
            Block *bh = blocks_.load(std::memory_order_relaxed);
            do {
                blk->next = bh;
            } while (!blocks_.compare_exchange_weak(
                bh, blk, std::memory_order_release,
                std::memory_order_relaxed));
            node = &blk->nodes[0];
            for (std::size_t i = 2; i < kBlockNodes; ++i)
                blk->nodes[i - 1].next.store(
                    &blk->nodes[i], std::memory_order_relaxed);
            Node *chain_head = &blk->nodes[1];
            Node *chain_tail = &blk->nodes[kBlockNodes - 1];
            Node *fh = free_head_.load(std::memory_order_relaxed);
            do {
                chain_tail->next.store(fh,
                                       std::memory_order_relaxed);
            } while (!free_head_.compare_exchange_weak(
                fh, chain_head, std::memory_order_release,
                std::memory_order_relaxed));
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
    alignas(64) std::atomic<std::size_t> tail_{0}; ///< producers
    alignas(64) std::atomic<std::size_t> head_{0}; ///< consumer
    alignas(64) std::atomic<Node *> over_head_{nullptr};
    std::atomic<Node *> free_head_{nullptr};
    std::atomic<Block *> blocks_{nullptr};
    std::atomic<std::uint64_t> overflowed_{0};
    std::atomic<std::uint64_t> blocks_allocated_{0};
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_MSG_RING_HH
