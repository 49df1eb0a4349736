#include "core/fleet.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string_view>

#include "cpu/scheduler.hh"
#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "prof/cdf.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sharded_engine.hh"
#include "soc/board.hh"
#include "soc/device_spec.hh"
#include "soc/shard_map.hh"
#include "workload/inference_process.hh"

namespace jetsim::core {

std::string
FleetSpec::label() const
{
    // Runs of identical boards are run-length compressed ("256x
    // orin-nano/mobilenet_v2/int8 b1") so thousand-board fleet
    // labels stay one line.
    std::string s = "fleet[";
    for (std::size_t i = 0; i < devices.size();) {
        const auto &d = devices[i];
        std::size_t run = 1;
        while (i + run < devices.size() && d == devices[i + run])
            ++run;
        if (i)
            s += " + ";
        char buf[160];
        if (run > 1) {
            std::snprintf(buf, sizeof(buf), "%zux ", run);
            s += buf;
        }
        std::snprintf(buf, sizeof(buf), "%s/%s/%s b%d",
                      d.device.c_str(), d.model.c_str(),
                      soc::name(d.precision), d.batch);
        s += buf;
        if (d.local_rate > 0.0) {
            std::snprintf(buf, sizeof(buf), " l%g", d.local_rate);
            s += buf;
        }
        i += run;
    }
    char tail[128];
    std::snprintf(tail, sizeof(tail), "] r%g d%gus s%llu",
                  balancer_rate, sim::toUsec(dispatch_latency),
                  static_cast<unsigned long long>(seed));
    s += tail;
    if (hierarchical) {
        std::snprintf(tail, sizeof(tail), " h%gus",
                      sim::toUsec(fanout_latency));
        s += tail;
    }
    return s;
}

namespace {

/** One board's full simulation stack, pinned to its shard's queue. */
struct Node
{
    Node(const soc::DeviceSpec &spec, const FleetDevice &d,
         sim::EventQueue &eq, std::uint64_t seed)
        : board(spec, eq, seed), sched(board), gpu(board)
    {
        srv_cfg.name = "srv"; // per-fleet index appended by caller
        srv_cfg.build.precision = d.precision;
        srv_cfg.build.batch = d.batch;
        srv_cfg.arrival_rate = d.local_rate; // 0 = balancer-fed only
        srv_cfg.spin_wait = false;           // servers block in sync
    }

    soc::Board board;
    cpu::OsScheduler sched;
    gpu::GpuEngine gpu;
    workload::ProcessConfig srv_cfg;
    std::unique_ptr<workload::InferenceProcess> srv;
};

/**
 * The central dispatcher: fleet-wide Poisson arrivals on shard 0,
 * round-robin over deployed boards, each decision posted through the
 * engine's cross-shard path with the spec's dispatch latency.
 *
 * Hierarchical mode (FleetSpec::hierarchical) splits the dispatch in
 * two: the *root* (this struct, alone on the reserved shard 0 of
 * soc::ShardMap::balancerReserved) posts the decision to the target
 * shard's *sub-balancer*, which forwards it to the device over a
 * shard-local port after fanout_latency. The root's port is the
 * engine's only cross-shard source, so the root shard is the only
 * poster: the device shards advance on its clock alone, and it runs
 * ahead of them; the sub hop rides the message seq band (sub ports
 * are local_only), keeping the two-hop dispatch order
 * topology-invariant.
 */
struct Balancer
{
    sim::ShardedEngine &engine;
    sim::EventQueue &eq; ///< shard 0 — where decisions execute
    sim::Rng rng;
    int port;
    double rate;
    sim::Tick latency;
    sim::Tick fanout;      ///< sub->device hop (hierarchical only)
    bool hierarchical;
    /** Shard -> local_only sub-balancer port; -1 off the hierarchy
     * (never indexed in flat mode). Immutable during the run. */
    std::vector<int> sub_ports;
    /** (dst shard, server), in device order — the round-robin ring. */
    std::vector<std::pair<int, workload::InferenceProcess *>> targets;
    std::size_t next = 0;
    bool measuring = false;
    bool stopped = false;
    std::uint64_t dispatched = 0;

    void
    scheduleNext()
    {
        const double mean_ns = 1e9 / rate;
        double u = rng.uniform();
        if (u < 1e-12)
            u = 1e-12;
        const auto gap =
            static_cast<sim::Tick>(-mean_ns * std::log(u)) + 1;
        eq.scheduleIn(gap, [this] { onArrival(); });
    }

    void
    onArrival()
    {
        if (stopped)
            return;
        const auto [shard, srv] = targets[next];
        next = (next + 1) % targets.size();
        if (measuring)
            ++dispatched;
        // The request's latency clock starts here; the dispatch hop
        // is the fleet's one cross-shard edge (= engine lookahead).
        const sim::Tick origin = eq.now();
        if (!hierarchical) {
            engine.post(port, shard, origin + latency,
                        [srv, origin] { srv->injectArrival(origin); });
        } else {
            // Two-hop: root -> sub (cross-shard, dispatch latency)
            // -> device (shard-local, fanout latency). The sub
            // callback reads only immutable balancer state, so the
            // forward hop is safe on any worker thread; arrival is
            // at origin + latency + fanout at any shard count.
            const int sub = sub_ports[static_cast<std::size_t>(shard)];
            engine.post(port, shard, origin + latency,
                        [this, sub, shard, srv, origin] {
                            engine.post(
                                sub, shard,
                                engine.shard(shard).now() + fanout,
                                [srv, origin] {
                                    srv->injectArrival(origin);
                                });
                        });
        }
        scheduleNext();
    }
};

} // namespace

FleetResult
runFleet(const FleetSpec &spec, const FleetOptions &opts)
{
    JETSIM_ASSERT(!spec.devices.empty());
    JETSIM_ASSERT(spec.dispatch_latency >= 1);
    JETSIM_ASSERT(!spec.hierarchical || spec.fanout_latency >= 1);

    const int n = static_cast<int>(spec.devices.size());
    const int want_shards = opts.shards < 1 ? 1 : opts.shards;
    const auto map = spec.hierarchical
                         ? soc::ShardMap::balancerReserved(
                               n, want_shards)
                         : soc::ShardMap::roundRobin(n, want_shards);

    sim::ShardedEngine::Options eopts;
    eopts.shards = map.shards();
    eopts.threads = opts.threads < 1 ? 1 : opts.threads;
    eopts.lookahead =
        opts.lookahead < 0 ? spec.dispatch_latency : opts.lookahead;
    sim::ShardedEngine engine(eopts);

    FleetResult res;
    res.spec = spec;

    // Names resolve here, on the caller, once each: an unknown one is
    // fatal(), whose exit must not run static destructors under live
    // workers.
    std::map<std::string, soc::DeviceSpec> boards;
    std::map<std::string, const graph::Network *> nets;
    for (const FleetDevice &dev : spec.devices) {
        if (!boards.contains(dev.device))
            boards.emplace(dev.device, soc::deviceByName(dev.device));
        if (!nets.contains(dev.model))
            nets.emplace(dev.model, &models::modelByName(dev.model));
    }

    // Set-up, each shard on its own worker: it builds and deploys its
    // boards in device order, then starts the deployed ones, so its
    // queue receives the same timer arms in the same order as from
    // one loop over the fleet, and no board touches another shard's
    // queue. The seed stride keeps per-board RNG streams independent
    // of fleet size and shard topology.
    std::vector<std::unique_ptr<Node>> nodes(static_cast<std::size_t>(n));
    engine.forEachShard([&](int s) {
        const std::vector<int> on = map.devicesOn(s);
        for (const int d : on) {
            const FleetDevice &dev = spec.devices[static_cast<std::size_t>(d)];
            auto &node = nodes[static_cast<std::size_t>(d)];
            node = std::make_unique<Node>(
                boards.at(dev.device), dev, engine.shard(s),
                spec.seed * 1000003 + static_cast<std::uint64_t>(d));
            node->board.start();
            node->srv_cfg.name = "srv" + std::to_string(d);
            node->srv = std::make_unique<workload::InferenceProcess>(
                node->board, node->sched, node->gpu, *nets.at(dev.model),
                node->srv_cfg);
            node->srv->deploy();
        }
        for (const int d : on)
            if (nodes[static_cast<std::size_t>(d)]->srv->deployed())
                nodes[static_cast<std::size_t>(d)]->srv->start();
    });

    Balancer bal{engine,
                 engine.shard(0),
                 sim::Rng(spec.seed).fork("fleet-balancer"),
                 engine.addPort(0), // root: port 0, beats sub ties
                 spec.balancer_rate,
                 spec.dispatch_latency,
                 spec.fanout_latency,
                 spec.hierarchical,
                 {},
                 {},
                 0,
                 false,
                 false,
                 0};
    if (spec.hierarchical) {
        // One local_only sub-balancer port per device-hosting shard,
        // registered in shard order: the port ids differ across
        // topologies, but every queue sees exactly one sub, so
        // same-queue message ties always resolve by that sub's
        // counter — i.e. in root dispatch order.
        bal.sub_ports.assign(
            static_cast<std::size_t>(map.shards()), -1);
        for (int s = 0; s < map.shards(); ++s)
            if (!map.devicesOn(s).empty())
                bal.sub_ports[static_cast<std::size_t>(s)] =
                    engine.addPort(s, /*local_only=*/true);
    }
    for (int d = 0; d < n; ++d)
        if (nodes[static_cast<std::size_t>(d)]->srv->deployed())
            bal.targets.emplace_back(
                map.shardOf(d),
                nodes[static_cast<std::size_t>(d)]->srv.get());
    res.all_deployed = bal.targets.size() == nodes.size();
    if (spec.balancer_rate > 0.0 && !bal.targets.empty())
        bal.scheduleNext();

    engine.runUntil(spec.warmup);
    for (auto &node : nodes)
        node->srv->beginMeasurement();
    bal.measuring = true;
    engine.runUntil(spec.warmup + spec.duration);
    bal.measuring = false;
    bal.stopped = true;

    // Reduction and tear-down, each shard on the worker that built it:
    // its devices' results and latency samples, then its nodes, freed
    // by the thread that allocated them.
    res.devices.resize(static_cast<std::size_t>(n));
    std::vector<std::vector<double>> samples(
        static_cast<std::size_t>(map.shards()));
    engine.forEachShard([&](int s) {
        for (const int d : map.devicesOn(s)) {
            auto &node = nodes[static_cast<std::size_t>(d)];
            auto &srv = *node->srv;
            srv.endMeasurement();
            srv.stopEnqueue();
            FleetDeviceResult &r = res.devices[static_cast<std::size_t>(d)];
            r.name = "srv" + std::to_string(d);
            r.device = spec.devices[static_cast<std::size_t>(d)].device;
            r.deployed = srv.deployed();
            if (r.deployed) {
                r.arrived = srv.arrived();
                r.served = srv.imagesCompleted();
                r.throughput = srv.throughput();
                const auto &lat = srv.latencyCdf();
                if (!lat.empty()) {
                    r.p50_ms = sim::toMsec(
                        static_cast<sim::Tick>(lat.quantile(0.5)));
                    r.p99_ms = sim::toMsec(
                        static_cast<sim::Tick>(lat.quantile(0.99)));
                    r.max_ms =
                        sim::toMsec(static_cast<sim::Tick>(lat.max()));
                }
                auto &mine = samples[static_cast<std::size_t>(s)];
                mine.insert(mine.end(), lat.samples().begin(),
                            lat.samples().end());
                r.max_queue = srv.maxQueueDepth();
            }
            node.reset();
        }
    });

    // The throughput sum folds halves in *device-index* order — never
    // shard order, which would make its rounding (and so the digest)
    // depend on the placement topology.
    std::vector<double> sum(static_cast<std::size_t>(n));
    for (std::size_t d = 0; d < sum.size(); ++d)
        sum[d] = res.devices[d].throughput;
    for (std::size_t width = sum.size(); width > 1;) {
        const std::size_t half = (width + 1) / 2;
        for (std::size_t i = 0; i + half < width; ++i)
            sum[i] += sum[i + half];
        width = half;
    }
    res.total_throughput = sum[0];
    // A quantile depends on the sample multiset only, so the shards'
    // samples join in shard order and the p99 is selected, not sorted.
    std::size_t total = 0;
    for (const auto &mine : samples)
        total += mine.size();
    std::vector<double> latencies;
    latencies.reserve(total);
    for (const auto &mine : samples)
        latencies.insert(latencies.end(), mine.begin(), mine.end());
    if (!latencies.empty())
        res.p99_ms = sim::toMsec(static_cast<sim::Tick>(
            prof::selectQuantile(latencies, 0.99)));
    res.dispatched = bal.dispatched;

    const auto st = engine.stats();
    res.events = st.executed;
    res.epochs = st.epochs;
    res.barriers = st.barriers;
    res.merge_steps = st.merge_steps;
    res.messages = st.messages;
    return res;
}

// ---------------------------------------------------------------------------
// Replay specs: a "jetsim_fleet_replay" document of the shared codec.

namespace {

constexpr std::string_view kReplayTag = "jetsim_fleet_replay";

struct FleetReplay
{
    FleetSpec spec;
    FleetOptions options;
};

template <class V, sim::FieldsOf<FleetReplay> S>
void
visitFields(V &v, S &r)
{
    v("spec", r.spec);
    v("options", r.options);
}

/** The preconditions runFleet asserts, as "<field>: <reason>". */
std::string
checkSpec(const FleetSpec &s)
{
    if (s.devices.empty())
        return "spec.devices: must list at least one board";
    for (std::size_t i = 0; i < s.devices.size(); ++i) {
        const auto &d = s.devices[i];
        const std::string at = "spec.devices[" + std::to_string(i) + "].";
        if (!soc::findDevice(d.device))
            return at + "device: unknown board '" + d.device + "'";
        if (std::ranges::count(models::allModelNames(), d.model) == 0)
            return at + "model: unknown model '" + d.model + "'";
        if (d.batch < 1)
            return at + "batch: must be >= 1";
        if (d.local_rate < 0.0)
            return at + "local_rate: must be >= 0";
    }
    if (s.balancer_rate < 0.0)
        return "spec.balancer_rate: must be >= 0";
    if (s.dispatch_latency < 1)
        return "spec.dispatch_latency: must be >= 1";
    if (s.hierarchical && s.fanout_latency < 1)
        return "spec.fanout_latency: must be >= 1 when hierarchical";
    if (s.warmup < 0)
        return "spec.warmup: must be >= 0";
    if (s.duration < 0)
        return "spec.duration: must be >= 0";
    return "";
}

/** checkSpec, then the options runFleet's engine would abort on. */
std::string
checkReplay(const FleetReplay &r)
{
    std::string err = checkSpec(r.spec);
    // Every root post lands exactly dispatch_latency after its
    // origin, so a longer lookahead breaks the engine's causality
    // bound on the first post.
    if (err.empty() && r.options.lookahead > r.spec.dispatch_latency)
        err = "options.lookahead: must not exceed spec.dispatch_latency "
              "(" + std::to_string(r.spec.dispatch_latency) + ")";
    return err;
}

} // namespace

bool
writeFleetReplay(const FleetSpec &spec, const FleetOptions &opts,
                 const std::string &path)
{
    return sim::writeFileAtomic(path,
                                sim::toJson(FleetReplay{spec, opts},
                                            kReplayTag, 1));
}

bool
readFleetReplay(const std::string &path, FleetSpec &spec,
                FleetOptions &opts, std::string &err)
{
    FleetReplay r;
    if (!sim::readJson(path, kReplayTag, 1, r, err, checkReplay))
        return false;
    spec = std::move(r.spec);
    opts = r.options;
    return true;
}

} // namespace jetsim::core
