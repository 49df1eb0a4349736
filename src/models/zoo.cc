#include "models/zoo.hh"

#include <map>
#include <mutex>
#include <optional>

#include "core/mutex.hh"
#include "core/thread_annotations.hh"
#include "sim/logging.hh"

namespace jetsim::models {

const std::vector<std::string> &
paperModelNames()
{
    static const std::vector<std::string> names = {
        "resnet50", "fcn_resnet50", "yolov8n",
    };
    return names;
}

const std::vector<std::string> &
allModelNames()
{
    static const std::vector<std::string> names = {
        "resnet50", "fcn_resnet50", "yolov8n", "resnet18",
        "mobilenet_v2",
    };
    return names;
}

namespace {

using ModelBuilder = graph::Network (*)();

/** The zoo's builder for @p name, or nullptr. */
ModelBuilder
builderFor(const std::string &name)
{
    if (name == "resnet50")
        return resnet50;
    if (name == "fcn_resnet50")
        return fcnResnet50;
    if (name == "yolov8n")
        return yolov8n;
    if (name == "resnet18")
        return resnet18;
    if (name == "mobilenet_v2")
        return mobilenetV2;
    return nullptr;
}

/** The models built so far, by name. The lock covers the map alone:
 * each model is built once under its slot's once_flag, outside the
 * lock. A std::map never moves its values, so a slot, and a reference
 * to its network, stays valid after the lock drops, and a published
 * network is never mutated. */
struct ModelStore
{
    struct Slot
    {
        std::once_flag built;
        std::optional<graph::Network> net;
    };

    core::Mutex model_store_mu;
    std::map<std::string, Slot> models JETSIM_GUARDED_BY(model_store_mu);
};

} // namespace

const graph::Network &
modelByName(const std::string &name)
{
    // Checked before the lock: fatal() exits, which would destroy the
    // store while its mutex is held.
    const ModelBuilder build = builderFor(name);
    if (!build)
        sim::fatal("unknown model '%s' (expected resnet50, "
                   "fcn_resnet50, yolov8n, resnet18, mobilenet_v2)",
                   name.c_str());

    static ModelStore store; // jetrace: guarded(ModelStore::model_store_mu)
    ModelStore::Slot *slot = nullptr;
    {
        core::LockGuard lock(store.model_store_mu);
        slot = &store.models[name];
    }
    std::call_once(slot->built, [&] { slot->net.emplace(build()); });
    return *slot->net;
}

} // namespace jetsim::models
