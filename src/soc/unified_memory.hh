/**
 * @file
 * Unified-memory pool shared by CPU and GPU on Jetson boards.
 *
 * The integrated design eliminates copy overhead but couples every
 * process's footprint into one budget: the paper reports that a
 * fourth concurrent FCN_ResNet50 process on the Jetson Nano exhausts
 * memory and reboots the board. We model allocation failure
 * explicitly so deployment-feasibility questions are first-class.
 */

#ifndef JETSIM_SOC_UNIFIED_MEMORY_HH
#define JETSIM_SOC_UNIFIED_MEMORY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace jetsim::soc {

/**
 * Byte-accounting allocator over the board's unified RAM.
 *
 * Allocations are identified by integer ids and tagged with an owner
 * string (one per simulated process) so per-process and total usage
 * can be reported the way jetson-stats does.
 */
class UnifiedMemory
{
  public:
    using AllocId = std::uint64_t;
    static constexpr AllocId kBadAlloc = 0;

    /**
     * JetSan fault-injection seam: tests corrupt the accounting
     * state through this class to prove the checker notices. Never
     * used outside tests/check/.
     */
    friend class MemoryFaultInjector;

    /**
     * @param total Physical RAM on the board.
     * @param os_reserved Bytes permanently held by the OS image.
     */
    UnifiedMemory(sim::Bytes total, sim::Bytes os_reserved);

    /**
     * Try to allocate @p size bytes for @p owner.
     * @return allocation id, or kBadAlloc when the pool is exhausted
     *         (the caller decides whether that is fatal).
     */
    AllocId allocate(const std::string &owner, sim::Bytes size);

    /** Release a previous allocation; id must be live. */
    void release(AllocId id);

    /** Bytes currently allocated (excluding the OS reservation). */
    sim::Bytes used() const { return used_; }

    /** Bytes still allocatable. */
    sim::Bytes
    available() const
    {
        return total_ - os_reserved_ - used_;
    }

    /**
     * Usage as a percentage of *total* physical RAM, including the OS
     * share — matching how jetson-stats (and the paper's figures)
     * report GPU memory.
     */
    double usagePercent() const;

    /** Bytes held by one owner. */
    sim::Bytes ownerUsage(const std::string &owner) const;

    /**
     * JetSan audit: verify that used() equals the sum of live
     * allocations and never exceeds the allocatable pool. Called
     * internally after every mutation (O(1) capacity check) and by
     * tests (full O(n) sum check).
     * @return true when the accounting is consistent.
     */
    bool auditInvariants() const;

  private:
    struct Allocation
    {
        std::string owner;
        sim::Bytes size;
    };

    sim::Bytes total_;
    sim::Bytes os_reserved_;
    sim::Bytes used_ = 0;
    AllocId next_id_ = 1;
    std::map<AllocId, Allocation> allocs_;
};

} // namespace jetsim::soc

#endif // JETSIM_SOC_UNIFIED_MEMORY_HH
