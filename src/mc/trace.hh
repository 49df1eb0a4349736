/**
 * @file
 * Choice traces: the record/replay layer under the model checker.
 *
 * A *script* is a plain vector of alternative indices. TraceChooser
 * replays it site by site — the first script.size() arbitration sites
 * take the scripted alternative, every later site takes the default
 * (alternative 0) — and records the full trace of every site it was
 * asked about: which kind, how many alternatives, their actor tags,
 * and the pick. A run of the simulator under a TraceChooser is a pure
 * function of (configuration, script), which is what makes stateless
 * exploration possible: the checker never snapshots simulator state,
 * it just re-executes with a longer script.
 */

#ifndef JETSIM_MC_TRACE_HH
#define JETSIM_MC_TRACE_HH

#include <cstdint>
#include <vector>

#include "sim/choice.hh"
#include "sim/logging.hh"

namespace jetsim::mc {

/** One arbitration site as the chooser saw it. */
struct ChoiceRec
{
    sim::ChoiceKind kind;
    int n = 0;      ///< alternatives offered (>= 2)
    int picked = 0; ///< alternative taken
    std::int64_t actors[sim::kMaxChoiceAlts] = {};
};

/** Replay a script prefix, record the full trace. */
class TraceChooser final : public sim::Chooser
{
  public:
    explicit TraceChooser(std::vector<int> script)
        : script_(std::move(script))
    {
    }

    int
    choose(sim::ChoiceKind kind, const std::int64_t *actors,
           int n) override
    {
        JETSIM_ASSERT(n >= 2 && n <= sim::kMaxChoiceAlts);
        ChoiceRec rec;
        rec.kind = kind;
        rec.n = n;
        for (int i = 0; i < n; ++i)
            rec.actors[i] = actors[i];
        int pick = 0;
        if (trace_.size() < script_.size()) {
            pick = script_[trace_.size()];
            // A stale script entry (the branch point moved because an
            // earlier choice changed the run) falls back to the
            // default rather than crashing: exploration treats the
            // resulting trace as what actually happened.
            if (pick < 0 || pick >= n)
                pick = 0;
        }
        rec.picked = pick;
        trace_.push_back(rec);
        return pick;
    }

    const std::vector<ChoiceRec> &trace() const { return trace_; }

  private:
    std::vector<int> script_;
    std::vector<ChoiceRec> trace_;
};

} // namespace jetsim::mc

#endif // JETSIM_MC_TRACE_HH
