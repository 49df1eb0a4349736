#include "sim/name_registry.hh"

#include <deque>
#include <unordered_map>

#include "core/mutex.hh"
#include "core/thread_annotations.hh"
#include "sim/logging.hh"

namespace jetsim::sim {

namespace {

struct Registry
{
    core::Mutex mu;
    // deque: stable references for nameOf() across growth. Entries
    // are immutable once published, so the reference nameOf() hands
    // out stays valid (and data-race-free) after the lock drops.
    std::deque<std::string> names JETSIM_GUARDED_BY(mu);
    std::unordered_map<std::string_view, NameId> ids
        JETSIM_GUARDED_BY(mu);
};

Registry &
registry()
{
    // Self-synchronized: both containers are guarded by Registry::mu.
    static Registry r; // jetrace: guarded(Registry::mu)
    return r;
}

} // namespace

NameId
internName(std::string_view name)
{
    Registry &r = registry();
    core::LockGuard lock(r.mu);
    auto it = r.ids.find(name);
    if (it != r.ids.end())
        return it->second;
    const auto id = static_cast<NameId>(r.names.size());
    JETSIM_ASSERT(id != kInvalidNameId);
    r.names.emplace_back(name);
    // Key the map by the deque-owned string: the view stays valid for
    // the registry's lifetime.
    r.ids.emplace(r.names.back(), id);
    return id;
}

const std::string &
nameOf(NameId id)
{
    Registry &r = registry();
    core::LockGuard lock(r.mu);
    if (id >= r.names.size())
        fatal("name registry: unknown id %u (interned: %zu)", id,
              r.names.size());
    // Returning a reference past the unlock is safe: interned
    // strings are append-only and immutable after publication.
    return r.names[id];
}

} // namespace jetsim::sim
