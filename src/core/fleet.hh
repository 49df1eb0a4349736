/**
 * @file
 * Fleet experiments: a serving deployment over many boards on the
 * sharded event core.
 *
 * A FleetSpec describes a heterogeneous fleet of simulated Jetson
 * boards, each running one inference server: a
 * workload::InferenceProcess whose request source is the open loop
 * (the same process class runs the paper's trtexec closed loop). Its
 * requests come from the central load balancer, which receives
 * fleet-wide Poisson traffic and dispatches requests round-robin over
 * the boards with a fixed network latency, and optionally from a
 * local Poisson generator (FleetDevice::local_rate). The
 * dispatch hop is the *only* cross-device edge, which makes it the
 * sharded engine's lookahead: with K shards (soc::ShardMap placement)
 * the per-device event streams run in parallel between balancer
 * decisions.
 *
 * The determinism contract extends core::Runner's: runFleet() is
 * bit-identical — equal resultDigest(FleetResult) — at *any*
 * (shards, threads) configuration, including the serial merge
 * fallback. tests/core/fleet_test.cc and the sharded differential
 * battery (tests/sim/sharded_diff_test.cc) are the proof; CI pass 1c
 * gates the committed digests (GOLDEN_fleet.json via
 * `simcheck --fleet-golden`).
 */

#ifndef JETSIM_CORE_FLEET_HH
#define JETSIM_CORE_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fields.hh"
#include "sim/types.hh"
#include "soc/precision.hh"

namespace jetsim::core {

/** One board of the fleet and the engine it serves. */
struct FleetDevice
{
    std::string device = "orin-nano"; ///< soc::deviceByName
    std::string model = "resnet50";   ///< models::modelByName
    soc::Precision precision = soc::Precision::Int8;
    int batch = 1;
    /** Device-local open-loop arrivals (img/s) on top of balancer
     * traffic; 0 = balancer-fed only. */
    double local_rate = 0.0;

    bool operator==(const FleetDevice &) const = default;
};

template <class V, sim::FieldsOf<FleetDevice> S>
void
visitFields(V &v, S &d)
{
    v("device", d.device);
    v("model", d.model);
    v("precision", d.precision);
    v("batch", d.batch);
    v("local_rate", d.local_rate);
}

/** A fleet serving deployment. */
struct FleetSpec
{
    std::vector<FleetDevice> devices;
    /** Fleet-wide Poisson arrivals (img/s) at the balancer,
     * dispatched round-robin. 0 disables the balancer. */
    double balancer_rate = 200.0;
    /** Balancer-to-device dispatch latency: the one cross-device
     * edge, and therefore the sharded engine's lookahead. */
    sim::Tick dispatch_latency = sim::usec(200);
    /**
     * Hierarchical dispatch: the root balancer lives alone on a
     * reserved shard (soc::ShardMap::balancerReserved) and routes
     * each request to the destination shard's *sub-balancer*, which
     * forwards it device-locally after fanout_latency. Requests
     * arrive at origin + dispatch_latency + fanout_latency at any
     * shard count — the two-hop path is part of the workload, so the
     * flag is spec-level and digested (via label()). This removes
     * the root as the fleets' single serialization point: with the
     * sub-hop on shard-local ports, only the root shard bounds the
     * engine's fused epoch horizon.
     */
    bool hierarchical = false;
    /** Sub-balancer-to-device forwarding latency (hierarchical
     * fleets only). */
    sim::Tick fanout_latency = sim::usec(50);
    sim::Tick warmup = sim::msec(100);
    sim::Tick duration = sim::msec(500);
    std::uint64_t seed = 1;

    /** "fleet[256x orin-nano/resnet50/int8 b1, ...] r200 s1" style
     * tag; runs of identical boards are run-length compressed so a
     * 1000-board fleet stays one line. */
    std::string label() const;

    bool operator==(const FleetSpec &) const = default;
};

template <class V, sim::FieldsOf<FleetSpec> S>
void
visitFields(V &v, S &s)
{
    v("devices", s.devices);
    v("balancer_rate", s.balancer_rate);
    v("dispatch_latency", s.dispatch_latency);
    v("hierarchical", s.hierarchical);
    v("fanout_latency", s.fanout_latency);
    v("warmup", s.warmup);
    v("duration", s.duration);
    v("seed", s.seed);
}

/** Per-board outcome of a fleet run. */
struct FleetDeviceResult
{
    std::string name;    ///< "srv0", matching FleetSpec order
    std::string device;  ///< board name
    bool deployed = false;
    std::uint64_t arrived = 0; ///< requests reaching this board
    std::uint64_t served = 0;  ///< requests completed in the window
    double throughput = 0.0;   ///< served img/s
    double p50_ms = 0.0;       ///< request latency median
    double p99_ms = 0.0;
    double max_ms = 0.0;
    std::uint64_t max_queue = 0; ///< deepest backlog observed
};

/** Everything one fleet run produces. */
struct FleetResult
{
    FleetSpec spec;
    bool all_deployed = false;
    std::vector<FleetDeviceResult> devices;
    double total_throughput = 0.0;  ///< served img/s, fleet-wide
    double p99_ms = 0.0;            ///< fleet-wide request p99
    std::uint64_t dispatched = 0;   ///< balancer decisions (window)
    /** Events executed across all shards — identical at any
     * shard/thread count (the same simulation runs either way), so
     * it is folded into the digest as a structural check. */
    std::uint64_t events = 0;
    /** @name Engine diagnostics — mode-dependent, never digested.
     * @{ */
    std::uint64_t epochs = 0;
    std::uint64_t barriers = 0;
    std::uint64_t merge_steps = 0;
    std::uint64_t messages = 0;
    /** @} */
};

/** How to run a fleet: shard/thread topology of the event core. */
struct FleetOptions
{
    int shards = 1;
    int threads = 1;
    /** Engine lookahead. -1 = auto (the spec's dispatch_latency);
     * 0 = force the serial-merge fallback. */
    sim::Tick lookahead = -1;

    bool operator==(const FleetOptions &) const = default;
};

template <class V, sim::FieldsOf<FleetOptions> S>
void
visitFields(V &v, S &o)
{
    v("shards", o.shards);
    v("threads", o.threads);
    v("lookahead", o.lookahead);
}

/** Simulate @p spec under @p opts (bit-identical at any opts). */
FleetResult runFleet(const FleetSpec &spec,
                     const FleetOptions &opts = {});

/** @name Replay specs (differential harness <-> simcheck)
 * A failing sharded-vs-serial comparison dumps its spec and options
 * as a JSON file (core/json.hh) that `simcheck --fleet-replay`
 * re-runs. The reader rejects a missing, unknown, mistyped or
 * out-of-range field and any spec runFleet would assert on, with
 * "<path>: <field>: <reason>" in @p err. @{ */
bool writeFleetReplay(const FleetSpec &spec, const FleetOptions &opts,
                      const std::string &path);
bool readFleetReplay(const std::string &path, FleetSpec &spec,
                     FleetOptions &opts, std::string &err);
/** @} */

} // namespace jetsim::core

#endif // JETSIM_CORE_FLEET_HH
