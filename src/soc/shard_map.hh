/**
 * @file
 * Device-to-shard placement for the sharded event core.
 *
 * A fleet of D boards runs on K event-queue shards
 * (sim::ShardedEngine); the map decides which board lives on which
 * shard. Placement is pure topology — it can never change simulation
 * *results* (the engine's merge is bit-identical at any shard count)
 * — but it decides load balance, so the default interleaves devices
 * round-robin: heterogeneous fleets listed as [big, small, big,
 * small, ...] spread both classes over all shards instead of piling
 * the big boards onto shard 0.
 */

#ifndef JETSIM_SOC_SHARD_MAP_HH
#define JETSIM_SOC_SHARD_MAP_HH

#include <vector>

namespace jetsim::soc {

/** Which shard each of a fleet's devices lives on. */
class ShardMap
{
  public:
    /** Device d -> shard d % shards (load-interleaving default). */
    static ShardMap roundRobin(int devices, int shards);

    /**
     * Shard 0 reserved for a root balancer (no devices), devices
     * round-robin over shards 1..K-1 — the placement hierarchical
     * fleets want: the root's arrival stream is the only cross-shard
     * poster, so every device shard advances on the root shard's
     * clock alone and never waits on another device shard.
     * Degenerates to everything-on-shard-0 when @p shards < 2 (the
     * serial / merge topologies); K is clamped to devices + 1 so no
     * device shard is ever empty.
     */
    static ShardMap balancerReserved(int devices, int shards);

    int devices() const { return static_cast<int>(map_.size()); }
    int shards() const { return shards_; }
    int shardOf(int device) const;

    /** Devices mapped to @p shard, in device order. */
    std::vector<int> devicesOn(int shard) const;

  private:
    ShardMap(std::vector<int> map, int shards)
        : map_(std::move(map)), shards_(shards)
    {
    }

    std::vector<int> map_;
    int shards_ = 1;
};

} // namespace jetsim::soc

#endif // JETSIM_SOC_SHARD_MAP_HH
