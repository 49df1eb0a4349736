/**
 * @file
 * Counterexample files: how jetmc hands a failing schedule to a human
 * (or to `simcheck --mc-replay`).
 *
 * A counterexample is a `"jetmc_ce": 1` JSON document of the shared
 * codec (sim/json.hh) carrying the CounterExample field list: the
 * model identity, the minimal choice script that reproduces the
 * failure, the failure kind, the reference digest and the deployment
 * configuration. Replaying is exact: reconstruct the model from the
 * embedded configuration, run the script, and the same failure must
 * appear — runs are pure functions of (config, script).
 *
 * The reader rejects a missing, unknown, mistyped or out-of-range
 * field, an unknown model, and a deployment the model would assert
 * on, naming the file and the field.
 */

#ifndef JETSIM_MC_CE_HH
#define JETSIM_MC_CE_HH

#include <memory>
#include <string>
#include <vector>

#include "mc/deployment.hh"
#include "mc/model.hh"
#include "sim/fields.hh"

namespace jetsim::mc {

/** A replayable failing schedule. */
struct CounterExample
{
    /** "toylock-inverted", "toylock-ordered" or "deployment". */
    std::string model;
    std::string what;   ///< failureKind() string
    std::string detail; ///< human diagnosis from the failing run
    std::uint64_t ref_digest = 0;
    std::vector<int> script;
    /** Used when model == "deployment". */
    DeployConfig deploy;

    bool operator==(const CounterExample &) const = default;
};

template <class V, sim::FieldsOf<CounterExample> S>
void
visitFields(V &v, S &ce)
{
    v("model", ce.model);
    v("what", ce.what);
    v("detail", ce.detail);
    v("ref_digest", ce.ref_digest);
    v("script", ce.script);
    v("deployment", ce.deploy);
}

/** Serialise to @p path; returns false on I/O failure. */
bool writeCe(const CounterExample &ce, const std::string &path);

/** Parse a writeCe() file; on failure returns false and sets @p err. */
bool readCe(const std::string &path, CounterExample &ce,
            std::string &err);

/** Reconstruct the model a counterexample ran against. */
std::unique_ptr<Model> buildModel(const CounterExample &ce);

/**
 * Re-run the counterexample and check the recorded failure
 * reproduces. @return empty string on success, else a diagnosis.
 */
std::string replayCe(const CounterExample &ce);

} // namespace jetsim::mc

#endif // JETSIM_MC_CE_HH
