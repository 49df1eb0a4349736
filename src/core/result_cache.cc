#include "core/result_cache.hh"

#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>

#include "check/digest.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace jetsim::core {

namespace {

constexpr std::string_view kTag = "jetsim_cache";

} // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    JETSIM_ASSERT(!dir_.empty());
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        sim::warn("result cache: cannot create '%s': %s",
                  dir_.c_str(), ec.message().c_str());
}

/** FNV-1a over the spec's canonical JSON: the version, the kind tag
 * and every field of its field list. */
std::uint64_t
ResultCache::specKey(const ExperimentSpec &spec)
{
    check::Digest d;
    d.add(sim::toJson(spec, "experiment", kFormatVersion));
    return d.value();
}

std::string
ResultCache::pathForKey(std::uint64_t key) const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return dir_ + "/jetsim-" + buf + ".json";
}

std::string
ResultCache::pathFor(const ExperimentSpec &spec) const
{
    return pathForKey(specKey(spec));
}

void
ResultCache::store(const ExperimentResult &r) const
{
    const std::string path = pathFor(r.spec);
    if (!sim::writeFileAtomic(path, sim::toJson(r, kTag, kFormatVersion)))
        sim::warn("result cache: cannot write '%s'", path.c_str());
}

/** Any read or decode failure, or a stored spec that differs from
 * @p spec (a key collision), is a miss. */
std::optional<ExperimentResult>
ResultCache::load(const ExperimentSpec &spec) const
{
    ExperimentResult r;
    std::string err;
    if (!sim::readJson(pathFor(spec), kTag, kFormatVersion, r, err,
                       [&spec](const ExperimentResult &stored) {
                           return stored.spec == spec
                                      ? ""
                                      : "spec: not the key's";
                       }))
        return std::nullopt;
    return r;
}

} // namespace jetsim::core
