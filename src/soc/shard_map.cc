#include "soc/shard_map.hh"

#include "sim/logging.hh"

namespace jetsim::soc {

ShardMap
ShardMap::roundRobin(int devices, int shards)
{
    JETSIM_ASSERT(devices >= 1);
    JETSIM_ASSERT(shards >= 1);
    // More shards than devices would leave empty shards for the
    // workers to claim and advance; clamp instead.
    const int k = shards > devices ? devices : shards;
    std::vector<int> map(static_cast<std::size_t>(devices));
    for (int d = 0; d < devices; ++d)
        map[static_cast<std::size_t>(d)] = d % k;
    return ShardMap(std::move(map), k);
}

ShardMap
ShardMap::balancerReserved(int devices, int shards)
{
    JETSIM_ASSERT(devices >= 1);
    JETSIM_ASSERT(shards >= 1);
    if (shards < 2) {
        // No shard to reserve: root and devices share shard 0.
        std::vector<int> map(static_cast<std::size_t>(devices), 0);
        return ShardMap(std::move(map), 1);
    }
    // K-1 device shards, shard 0 device-free; clamp so every device
    // shard holds at least one board.
    const int k = shards > devices + 1 ? devices + 1 : shards;
    std::vector<int> map(static_cast<std::size_t>(devices));
    for (int d = 0; d < devices; ++d)
        map[static_cast<std::size_t>(d)] = 1 + d % (k - 1);
    return ShardMap(std::move(map), k);
}

int
ShardMap::shardOf(int device) const
{
    JETSIM_ASSERT(device >= 0 && device < devices());
    return map_[static_cast<std::size_t>(device)];
}

std::vector<int>
ShardMap::devicesOn(int shard) const
{
    JETSIM_ASSERT(shard >= 0 && shard < shards_);
    std::vector<int> out;
    for (int d = 0; d < devices(); ++d)
        if (map_[static_cast<std::size_t>(d)] == shard)
            out.push_back(d);
    return out;
}

} // namespace jetsim::soc
