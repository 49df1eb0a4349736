/**
 * @file
 * The real thing under the checker: a bounded concurrent deployment.
 *
 * DeploymentModel runs the full simulator stack — board, OS
 * scheduler, GPU engine, N inference processes — as a *closed*
 * workload: each process enqueues exactly max_ecs execution contexts
 * (counted in its own program order, so the count is identical in
 * every interleaving), uses blocking sync (spin-wait never quiesces),
 * and the DVFS governor's periodic events stay off. The event queue
 * therefore drains, and one run is a terminating, deterministic
 * function of the choice script.
 *
 * What a run reports:
 *  - deadlock: the queue drained while some process had work left;
 *  - a *logical* digest folding only schedule-invariant facts
 *    (per-process EC/launch/image counts, each channel's FIFO kernel
 *    sequence, the memory balance, the violation count). Timing is
 *    deliberately excluded: GPU/CPU arbitration legitimately moves
 *    latencies, and the schedule-independence theorem jetmc proves is
 *    about results, not timestamps;
 *  - per-process worst-case blocking, reported as a bound over the
 *    explored schedules.
 *
 * Independence for the partial-order reduction: each process owns
 * one stream and its own device memory (TensorRT processes share
 * none), so distinct processes are independent — unless
 * `shared_buffer` seeds a cross-process conflict, which makes every
 * pair dependent and collapses the reduction exactly as the theory
 * says it must.
 */

#ifndef JETSIM_MC_DEPLOYMENT_HH
#define JETSIM_MC_DEPLOYMENT_HH

#include <string>
#include <vector>

#include "mc/model.hh"
#include "sim/fields.hh"
#include "soc/precision.hh"

namespace jetsim::mc {

/** One bounded concurrent deployment to check. */
struct DeployConfig
{
    std::string device = "orin-nano";

    struct Proc
    {
        std::string model = "resnet50";
        soc::Precision precision = soc::Precision::Fp16;
        int batch = 1;

        bool operator==(const Proc &) const = default;

        template <class V, sim::FieldsOf<Proc> S>
        friend void
        visitFields(V &v, S &p)
        {
            v("net", p.model);
            v("precision", p.precision);
            v("batch", p.batch);
        }
    };
    std::vector<Proc> procs;

    /** ECs each process enqueues before stopping (program-order
     * bound; see workload::ProcessConfig::max_ecs). */
    std::uint64_t max_ecs = 2;
    int pre_enqueue = 1;
    std::uint64_t seed = 1;
    /** Event budget per run; exhausting it is a config error, not a
     * verdict. */
    std::uint64_t max_events = 500000;
    /** Seed a buffer every process writes, so every process pair
     * is dependent (dependence-injection test for the DPOR). */
    bool shared_buffer = false;

    std::string label() const;

    bool operator==(const DeployConfig &) const = default;
};

template <class V, sim::FieldsOf<DeployConfig> S>
void
visitFields(V &v, S &c)
{
    v("device", c.device);
    v("procs", c.procs);
    v("max_ecs", c.max_ecs);
    v("pre_enqueue", c.pre_enqueue);
    v("seed", c.seed);
    v("max_events", c.max_events);
    v("shared_buffer", c.shared_buffer);
}

/** Model implementation over the full simulator stack. */
class DeploymentModel final : public Model
{
  public:
    explicit DeploymentModel(DeployConfig cfg);

    std::string name() const override { return cfg_.label(); }
    RunOutcome run(const std::vector<int> &script) override;
    int procCount() const override
    {
        return static_cast<int>(cfg_.procs.size());
    }
    int procOf(sim::ChoiceKind kind, std::int64_t actor) const override;
    bool dependent(int pa, int pb) const override;

  private:
    DeployConfig cfg_;
};

} // namespace jetsim::mc

#endif // JETSIM_MC_DEPLOYMENT_HH
