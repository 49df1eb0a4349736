/**
 * @file
 * Outbox: unbounded single-producer/single-consumer queue, one per
 * poster -> receiver shard pair of the sharded event core.
 *
 * Shape: a singly linked list of nodes with a stub at its head. The
 * producer appends behind tail_ and publishes each node with a release
 * store of its predecessor's next; the consumer follows next (acquire)
 * from head_, takes the message, and advances head_ (release). Every
 * node the consumer has left behind head_ is free, and the producer
 * reuses those oldest-first before it touches a fresh one, so a queue
 * whose depth stays below its high-water mark never allocates. Fresh
 * nodes come in blocks of kBlockNodes, one malloc each; the first
 * block is bought at construction.
 *
 * One producer and one consumer at a time, but not one thread: the
 * engine hands each role from worker to worker with the shard claim's
 * acquire/release, which orders the producer's plain fields (tail_,
 * the reuse cursor, the fresh-node cursor) exactly as it orders the
 * shard's own heap. head_ is the only field both sides touch. No CAS,
 * no spin, no producer id.
 *
 * What one drain takes: every node published before its acquire load
 * of that node's link, in push order. A push that *happens before* a
 * drain (the engine orders them through the posting shard's published
 * clock) is always taken by it.
 */

#ifndef JETSIM_SIM_OUTBOX_HH
#define JETSIM_SIM_OUTBOX_HH

#include <atomic>
#include <cstddef>
#include <new>
#include <utility>

#include "core/hot_annotations.hh"

namespace jetsim::sim {

/** Unbounded SPSC queue with node reuse and block-batched growth. */
template <typename T>
class Outbox
{
  public:
    /** Nodes per block: one malloc buys this many. */
    static constexpr std::size_t kBlockNodes = 64;

    Outbox()
    {
        Node *stub = fresh();
        head_.store(stub, std::memory_order_relaxed);
        tail_ = reuse_ = seen_head_ = stub;
    }

    Outbox(const Outbox &) = delete;
    Outbox &operator=(const Outbox &) = delete;

    ~Outbox()
    {
        // Quiescent by contract (engine teardown): destroy what was
        // never drained, then release the blocks.
        drain([](T &&) {});
        while (blocks_ != nullptr) {
            Block *next = blocks_->next;
            delete blocks_;
            blocks_ = next;
        }
    }

    /** Producer side; concurrent with drain(). Never blocks. */
    JETSIM_HOT void
    push(T v)
    {
        Node *n = take();
        ::new (n->storage()) T(std::move(v));
        n->next.store(nullptr, std::memory_order_relaxed);
        tail_->next.store(n, std::memory_order_release);
        tail_ = n;
    }

    /**
     * Consumer side; concurrent with push(). Invokes @p fn on every
     * message taken, in push order.
     * @return messages delivered.
     */
    template <typename Fn>
    JETSIM_HOT std::size_t
    drain(Fn &&fn)
    {
        std::size_t n = 0;
        Node *h = head_.load(std::memory_order_relaxed);
        for (Node *next = h->next.load(std::memory_order_acquire);
             next != nullptr;
             next = h->next.load(std::memory_order_acquire))
        {
            T *v = std::launder(reinterpret_cast<T *>(next->storage()));
            fn(std::move(*v));
            v->~T();
            // next is the new stub; h goes back to the producer.
            head_.store(next, std::memory_order_release);
            h = next;
            ++n;
        }
        return n;
    }

    /** Blocks bought so far (the first at construction). */
    std::size_t
    blocks() const
    {
        std::size_t n = 0;
        for (const Block *b = blocks_; b != nullptr; b = b->next)
            ++n;
        return n;
    }

  private:
    struct Node
    {
        std::atomic<Node *> next{nullptr};
        alignas(T) unsigned char raw[sizeof(T)];
        void *storage() { return raw; }
    };

    struct Block
    {
        Block *next = nullptr;
        Node nodes[kBlockNodes];
    };

    /** A node for the next push: the oldest one the consumer has
     * left behind, else a fresh one. */
    Node *
    take()
    {
        if (reuse_ == seen_head_)
            seen_head_ = head_.load(std::memory_order_acquire);
        if (reuse_ == seen_head_)
            return fresh();
        Node *n = reuse_;
        reuse_ = n->next.load(std::memory_order_relaxed);
        return n;
    }

    Node *
    fresh()
    {
        if (fresh_ == kBlockNodes)
            grow();
        return &blocks_->nodes[fresh_++];
    }

    JETSIM_COLD_OK("outbox growth: one malloc buys 64 nodes, and the producer reuses drained nodes first, so a steady depth never allocates")
    void
    grow()
    {
        auto *b = new Block;
        b->next = blocks_;
        blocks_ = b;
        fresh_ = 0;
    }

    /** Consumer: the stub; every node before it is free. */
    alignas(64) std::atomic<Node *> head_{nullptr};
    /** @name Producer
     * @{ */
    alignas(64) Node *tail_ = nullptr;
    Node *reuse_ = nullptr;     ///< oldest node in the list
    Node *seen_head_ = nullptr; ///< head_ as last loaded
    Block *blocks_ = nullptr;   ///< newest first
    std::size_t fresh_ = kBlockNodes; ///< next unused node of blocks_
    /** @} */
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_OUTBOX_HH
