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

/** FNV-1a over the spec's canonical JSON: the version, the kind tag
 * and every field of its field list. */
template <class Spec>
std::uint64_t
keyOf(std::string_view kind, const Spec &spec)
{
    check::Digest d;
    d.add(sim::toJson(spec, kind, ResultCache::kFormatVersion));
    return d.value();
}

template <class Result>
void
storeEntry(const std::string &path, const Result &r)
{
    if (!sim::writeFileAtomic(
            path, sim::toJson(r, kTag, ResultCache::kFormatVersion)))
        sim::warn("result cache: cannot write '%s'", path.c_str());
}

/** Any read or decode failure, or a stored spec that differs from
 * @p spec (a key collision), is a miss. */
template <class Result, class Spec>
std::optional<Result>
loadEntry(const std::string &path, const Spec &spec)
{
    Result r;
    std::string err;
    if (!sim::readJson(path, kTag, ResultCache::kFormatVersion, r, err,
                       [&spec](const Result &r) {
                           return r.spec == spec ? ""
                                                 : "spec: not the key's";
                       }))
        return std::nullopt;
    return r;
}

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

std::uint64_t
ResultCache::specKey(const ExperimentSpec &spec)
{
    return keyOf("experiment", spec);
}

std::uint64_t
ResultCache::specKey(const MixedExperimentSpec &spec)
{
    return keyOf("mixed", spec);
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

std::string
ResultCache::pathFor(const MixedExperimentSpec &spec) const
{
    return pathForKey(specKey(spec));
}

void
ResultCache::store(const ExperimentResult &r) const
{
    storeEntry(pathFor(r.spec), r);
}

std::optional<ExperimentResult>
ResultCache::load(const ExperimentSpec &spec) const
{
    return loadEntry<ExperimentResult>(pathFor(spec), spec);
}

void
ResultCache::store(const MixedExperimentResult &r) const
{
    storeEntry(pathFor(r.spec), r);
}

std::optional<MixedExperimentResult>
ResultCache::load(const MixedExperimentSpec &spec) const
{
    return loadEntry<MixedExperimentResult>(pathFor(spec), spec);
}

} // namespace jetsim::core
