#include "soc/unified_memory.hh"

#include <algorithm>

#include "check/check.hh"
#include "sim/logging.hh"

namespace jetsim::soc {

namespace {
constexpr const char *kComponent = "soc.memory";
}

UnifiedMemory::UnifiedMemory(sim::Bytes total, sim::Bytes os_reserved)
    : total_(total), os_reserved_(os_reserved)
{
    if (os_reserved_ > total_) {
        JETSIM_VIOLATION(check::Severity::Error,
                         check::Invariant::MemoryAccounting, kComponent,
                         check::kTimeUnknown,
                         "OS reservation (%llu B) exceeds physical "
                         "memory (%llu B)",
                         static_cast<unsigned long long>(os_reserved_),
                         static_cast<unsigned long long>(total_));
        os_reserved_ = total_;
    }
}

UnifiedMemory::AllocId
UnifiedMemory::allocate(const std::string &owner, sim::Bytes size)
{
    if (size > available()) {
        // A denied allocation is a *legal* outcome (the paper's
        // over-deployment failure mode), not an invariant violation.
        return kBadAlloc;
    }
    const AllocId id = next_id_++;
    allocs_[id] = Allocation{owner, size};
    used_ += size;
    JETSIM_CHECK(used_ <= total_ - os_reserved_,
                 check::Severity::Error,
                 check::Invariant::MemoryAccounting, kComponent,
                 check::kTimeUnknown,
                 "used (%llu B) exceeds allocatable pool (%llu B) "
                 "after allocating for %s",
                 static_cast<unsigned long long>(used_),
                 static_cast<unsigned long long>(total_ - os_reserved_),
                 owner.c_str());
    return id;
}

void
UnifiedMemory::release(AllocId id)
{
    auto it = allocs_.find(id);
    if (it == allocs_.end()) {
        JETSIM_VIOLATION(check::Severity::Error,
                         check::Invariant::MemoryAccounting, kComponent,
                         check::kTimeUnknown,
                         "release of unknown allocation id %llu "
                         "(double free or use-after-free)",
                         static_cast<unsigned long long>(id));
        return;
    }
    JETSIM_CHECK(it->second.size <= used_, check::Severity::Error,
                 check::Invariant::MemoryAccounting, kComponent,
                 check::kTimeUnknown,
                 "releasing %llu B from %s underflows used (%llu B)",
                 static_cast<unsigned long long>(it->second.size),
                 it->second.owner.c_str(),
                 static_cast<unsigned long long>(used_));
    used_ -= std::min(it->second.size, used_);
    allocs_.erase(it);
}

bool
UnifiedMemory::auditInvariants() const
{
    sim::Bytes sum = 0;
    for (const auto &[id, a] : allocs_)
        sum += a.size;
    bool ok = true;
    if (sum != used_) {
        ok = false;
        JETSIM_VIOLATION(check::Severity::Error,
                         check::Invariant::MemoryAccounting, kComponent,
                         check::kTimeUnknown,
                         "accounting drift: used=%llu B but live "
                         "allocations sum to %llu B",
                         static_cast<unsigned long long>(used_),
                         static_cast<unsigned long long>(sum));
    }
    if (used_ > total_ - os_reserved_) {
        ok = false;
        JETSIM_VIOLATION(check::Severity::Error,
                         check::Invariant::MemoryAccounting, kComponent,
                         check::kTimeUnknown,
                         "used (%llu B) exceeds allocatable pool "
                         "(%llu B)",
                         static_cast<unsigned long long>(used_),
                         static_cast<unsigned long long>(
                             total_ - os_reserved_));
    }
    return ok;
}

double
UnifiedMemory::usagePercent() const
{
    return 100.0 * static_cast<double>(os_reserved_ + used_) /
           static_cast<double>(total_);
}

sim::Bytes
UnifiedMemory::ownerUsage(const std::string &owner) const
{
    sim::Bytes n = 0;
    for (const auto &[id, a] : allocs_)
        if (a.owner == owner)
            n += a.size;
    return n;
}

} // namespace jetsim::soc
