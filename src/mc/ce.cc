#include "mc/ce.hh"

#include <algorithm>
#include <string_view>

#include "mc/explorer.hh"
#include "mc/toylock.hh"
#include "models/zoo.hh"
#include "sim/json.hh"
#include "soc/device_spec.hh"

namespace jetsim::mc {

namespace {

constexpr std::string_view kTag = "jetmc_ce";

/** What DeploymentModel and the workload assert, as
 * "<field>: <reason>". */
std::string
checkCe(const CounterExample &ce)
{
    if (ce.model == "toylock-inverted" || ce.model == "toylock-ordered")
        return "";
    if (ce.model != "deployment")
        return "model: unknown model '" + ce.model + "'";
    const DeployConfig &d = ce.deploy;
    if (!soc::findDevice(d.device))
        return "deployment.device: unknown board '" + d.device + "'";
    if (d.procs.empty())
        return "deployment.procs: must list at least one process";
    for (std::size_t i = 0; i < d.procs.size(); ++i) {
        const auto &p = d.procs[i];
        const std::string at =
            "deployment.procs[" + std::to_string(i) + "].";
        if (std::ranges::count(models::allModelNames(), p.model) == 0)
            return at + "net: unknown model '" + p.model + "'";
        if (p.batch < 1)
            return at + "batch: must be >= 1";
    }
    if (d.max_ecs == 0)
        return "deployment.max_ecs: must be > 0";
    if (d.pre_enqueue < 0)
        return "deployment.pre_enqueue: must be >= 0";
    return "";
}

} // namespace

bool
writeCe(const CounterExample &ce, const std::string &path)
{
    return sim::writeFileAtomic(path, sim::toJson(ce, kTag, 1));
}

bool
readCe(const std::string &path, CounterExample &ce, std::string &err)
{
    return sim::readJson(path, kTag, 1, ce, err, checkCe);
}

std::unique_ptr<Model>
buildModel(const CounterExample &ce)
{
    if (ce.model == "toylock-inverted")
        return std::make_unique<ToyLockModel>(true);
    if (ce.model == "toylock-ordered")
        return std::make_unique<ToyLockModel>(false);
    return std::make_unique<DeploymentModel>(ce.deploy);
}

std::string
replayCe(const CounterExample &ce)
{
    const auto model = buildModel(ce);
    const RunOutcome out = model->run(ce.script);
    const std::string kind = failureKind(out, ce.ref_digest);
    if (kind == ce.what)
        return "";
    return "expected '" + ce.what + "' but the replay produced '" +
           (kind.empty() ? "clean run" : kind) + "'" +
           (out.detail.empty() ? "" : " (" + out.detail + ")");
}

} // namespace jetsim::mc
