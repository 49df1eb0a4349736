/**
 * @file
 * jetmc - schedule-space model checker for concurrent deployments.
 *
 * Explores every interleaving (bounded depth, DPOR-reduced) of small
 * closed deployments and proves, over the explored space:
 *   - deadlock-freedom,
 *   - schedule-independence of the logical result digest,
 *   - worst-case per-process blocking bounds (observed maxima).
 *
 * Modes:
 *   jetmc --selftest
 *       Checker-checks-itself: proves the ordered toy lock model
 *       safe, then *finds* the seeded deadlock in the inverted
 *       variant, minimises the trace, writes it as a counterexample
 *       file and replays it. Exits non-zero if the deadlock is not
 *       found — CI runs this before trusting any deployment verdict.
 *   jetmc --procs=N [--model=resnet50] [--device=orin-nano]
 *       Check one N-process deployment.
 *   jetmc --zoo --procs=N
 *       Check every paper model at N processes.
 *
 * --compare re-runs the search without the reduction and reports the
 * naive/DPOR run ratio; --min-reduction fails CI when the reduction
 * underperforms. Counterexamples go to --ce-dir and replay with
 * `simcheck --mc-replay=<file>`.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "argparse.hh"

#include "mc/ce.hh"
#include "mc/deployment.hh"
#include "mc/explorer.hh"
#include "mc/toylock.hh"
#include "models/zoo.hh"
#include "soc/device_spec.hh"

using namespace jetsim;

namespace {

struct CheckResult
{
    std::string label;
    mc::ExploreReport dpor;
    bool compared = false;
    std::uint64_t naive_runs = 0;
    bool naive_capped = false;
    double reduction = 1.0;
    std::string ce_path;
};

/** Split "a,b,c"; empty string gives an empty list. */
std::vector<std::string>
splitList(const std::string &v)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < v.size()) {
        const auto comma = v.find(',', pos);
        const auto end = comma == std::string::npos ? v.size() : comma;
        if (end > pos)
            out.push_back(v.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

void
printReport(const CheckResult &r)
{
    const auto &rep = r.dpor;
    std::printf("--- %s\n", r.label.c_str());
    std::printf("    runs %llu  branches %llu  pruned %llu  "
                "max-trace %d  max-events %llu\n",
                static_cast<unsigned long long>(rep.runs),
                static_cast<unsigned long long>(rep.branches),
                static_cast<unsigned long long>(rep.pruned),
                rep.max_trace_len,
                static_cast<unsigned long long>(rep.max_events));
    if (r.compared)
        std::printf("    naive runs %llu%s  reduction %.1fx\n",
                    static_cast<unsigned long long>(r.naive_runs),
                    r.naive_capped ? " (capped)" : "",
                    r.reduction);
    if (rep.clean()) {
        std::printf("    deadlock-free: %s   digest %016llx "
                    "schedule-independent: %s\n",
                    rep.proved() ? "PROVED (bounded)" : "no failure "
                                                        "found",
                    static_cast<unsigned long long>(rep.digest),
                    rep.proved() ? "PROVED (bounded)" : "held");
        for (std::size_t i = 0; i < rep.max_block_ms.size(); ++i)
            std::printf("    proc %zu worst-case blocking %.3f ms\n",
                        i, rep.max_block_ms[i]);
        if (rep.depth_clipped)
            std::printf("    note: sites beyond --depth existed "
                        "(bounded proof)\n");
        if (rep.run_budget_hit || rep.event_bound_hit)
            std::printf("    note: search budget hit; space not "
                        "exhausted\n");
    } else {
        std::printf("    FAILED: %s%s%s\n", rep.ce_what.c_str(),
                    rep.ce_detail.empty() ? "" : " - ",
                    rep.ce_detail.c_str());
        std::printf("    counterexample script (%zu choices):",
                    rep.ce_script.size());
        for (const int c : rep.ce_script)
            std::printf(" %d", c);
        std::printf("\n");
        if (!r.ce_path.empty())
            std::printf("    written to %s (replay: simcheck "
                        "--mc-replay=%s)\n",
                        r.ce_path.c_str(), r.ce_path.c_str());
    }
}

void
emitJson(const std::string &path,
         const std::vector<CheckResult> &results)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "jetmc: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"configs\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        const auto &rep = r.dpor;
        std::fprintf(f,
                     "    {\"label\": \"%s\", \"runs\": %llu, "
                     "\"pruned\": %llu, \"clean\": %s, "
                     "\"proved\": %s, \"digest\": \"%016llx\", "
                     "\"ce\": \"%s\"",
                     r.label.c_str(),
                     static_cast<unsigned long long>(rep.runs),
                     static_cast<unsigned long long>(rep.pruned),
                     rep.clean() ? "true" : "false",
                     rep.proved() ? "true" : "false",
                     static_cast<unsigned long long>(rep.digest),
                     rep.ce_what.c_str());
        if (r.compared)
            std::fprintf(f,
                         ", \"naive_runs\": %llu, "
                         "\"reduction\": %.2f",
                         static_cast<unsigned long long>(r.naive_runs),
                         r.reduction);
        std::fprintf(f, ", \"max_block_ms\": [");
        for (std::size_t b = 0; b < rep.max_block_ms.size(); ++b)
            std::fprintf(f, "%s%.4f", b ? ", " : "",
                         rep.max_block_ms[b]);
        std::fprintf(f, "]}%s\n",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "jetmc: wrote %s\n", path.c_str());
}

/** Write the CE (if any) next to the report; returns the path. */
std::string
persistCe(const mc::ExploreReport &rep, const std::string &ce_dir,
          const std::string &model_id, const mc::DeployConfig *deploy,
          int index)
{
    if (rep.clean() || ce_dir.empty())
        return "";
    mc::CounterExample ce;
    ce.model = deploy ? "deployment" : model_id;
    ce.what = rep.ce_what;
    ce.detail = rep.ce_detail;
    ce.ref_digest = rep.digest;
    ce.script = rep.ce_script;
    if (deploy)
        ce.deploy = *deploy;
    const std::string path =
        ce_dir + "/jetmc_ce_" + std::to_string(index) + ".json";
    if (!mc::writeCe(ce, path)) {
        std::fprintf(stderr, "jetmc: cannot write %s\n", path.c_str());
        return "";
    }
    return path;
}

int
selftest(const std::string &ce_dir)
{
    std::printf("jetmc self-test\n");
    mc::ExploreConfig cfg;
    cfg.depth = 16;
    cfg.max_runs = 50000;

    // 1. The well-ordered variant must verify clean and exhaustively.
    mc::ToyLockModel ordered(false);
    const auto safe = mc::explore(ordered, cfg);
    std::printf("  ordered locks: %llu runs, %s\n",
                static_cast<unsigned long long>(safe.runs),
                safe.proved() ? "deadlock-free (proved)" : "FAILED");
    if (!safe.proved()) {
        std::fprintf(stderr,
                     "jetmc: self-test FAILED: safe model did not "
                     "verify (%s)\n",
                     safe.ce_what.c_str());
        return 1;
    }

    // 2. The inverted variant must deadlock, and the minimal trace
    //    must replay.
    mc::ToyLockModel inverted(true);
    const auto bad = mc::explore(inverted, cfg);
    if (!bad.deadlock) {
        std::fprintf(stderr, "jetmc: self-test FAILED: seeded "
                             "deadlock not found\n");
        return 1;
    }
    std::printf("  inverted locks: deadlock found in %llu runs, "
                "minimal script %zu choices (%s)\n",
                static_cast<unsigned long long>(bad.runs),
                bad.ce_script.size(), bad.ce_detail.c_str());

    mc::CounterExample ce;
    ce.model = "toylock-inverted";
    ce.what = bad.ce_what;
    ce.detail = bad.ce_detail;
    ce.ref_digest = bad.digest;
    ce.script = bad.ce_script;
    const std::string dir = ce_dir.empty() ? "." : ce_dir;
    const std::string path = dir + "/jetmc_ce_selftest.json";
    if (!mc::writeCe(ce, path)) {
        std::fprintf(stderr, "jetmc: self-test FAILED: cannot write "
                             "%s\n",
                     path.c_str());
        return 1;
    }
    mc::CounterExample back;
    std::string err;
    if (!mc::readCe(path, back, err)) {
        std::fprintf(stderr, "jetmc: self-test FAILED: %s\n",
                     err.c_str());
        return 1;
    }
    const std::string replay = mc::replayCe(back);
    if (!replay.empty()) {
        std::fprintf(stderr,
                     "jetmc: self-test FAILED: counterexample did "
                     "not replay: %s\n",
                     replay.c_str());
        return 1;
    }
    std::printf("  counterexample replayed from %s\n", path.c_str());
    std::printf("jetmc self-test OK\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ArgParser args("jetmc",
                          "schedule-space model checker: proves "
                          "deadlock-freedom and schedule-independence "
                          "of bounded concurrent deployments");
    args.add("selftest", "false",
             "run the seeded-deadlock self-test and exit");
    args.add("device", "orin-nano", "board to deploy on");
    args.add("model", "resnet50", "model for every process");
    args.add("models", "",
             "comma list of per-process models (overrides "
             "--model/--procs)");
    args.add("zoo", "false", "check every paper model at --procs");
    args.add("procs", "2", "number of concurrent processes");
    args.add("precision", "fp16", "engine precision");
    args.add("max-ecs", "2", "ECs each process enqueues (closed "
                             "workload bound)");
    args.add("depth", "24", "max arbitration sites to branch at");
    args.add("max-runs", "20000", "execution budget per config");
    args.add("max-events", "500000", "event budget per run");
    args.add("shared-buffer", "false",
             "seed a cross-process buffer conflict (dependence "
             "injection)");
    args.add("no-dpor", "false", "disable the partial-order "
                                 "reduction");
    args.add("compare", "false",
             "also run the naive DFS and report the reduction "
             "factor");
    args.add("min-reduction", "0",
             "fail unless DPOR reduces runs by at least this factor "
             "(implies --compare)");
    args.add("json", "", "write a machine-readable report");
    args.add("ce-dir", "", "directory for counterexample files");
    if (!args.parse(argc, argv))
        return 2;

    if (args.boolean("selftest"))
        return selftest(args.str("ce-dir"));

    const double min_reduction = args.dbl("min-reduction");
    const bool compare =
        args.boolean("compare") || min_reduction > 0;

    std::vector<std::vector<std::string>> proc_sets;
    if (!args.str("models").empty()) {
        proc_sets.push_back(splitList(args.str("models")));
    } else {
        const int procs = args.intval("procs");
        if (procs < 1 || procs > 8) {
            std::fprintf(stderr,
                         "jetmc: --procs must be in [1, 8]\n");
            return 2;
        }
        std::vector<std::string> names;
        if (args.boolean("zoo"))
            for (const auto &m : models::paperModelNames())
                names.push_back(m);
        else
            names.push_back(
                args.choice("model", models::allModelNames()));
        for (const auto &m : names)
            proc_sets.push_back(std::vector<std::string>(
                static_cast<std::size_t>(procs), m));
    }

    mc::ExploreConfig ecfg;
    ecfg.depth = args.intval("depth");
    ecfg.max_runs =
        static_cast<std::uint64_t>(args.intval("max-runs"));
    ecfg.dpor = !args.boolean("no-dpor");

    const auto device = args.choice("device", soc::deviceNames());
    const auto precision = args.precision("precision");
    std::vector<CheckResult> results;
    bool failed = false;
    int index = 0;
    for (const auto &set : proc_sets) {
        mc::DeployConfig dc;
        dc.device = device;
        dc.max_ecs =
            static_cast<std::uint64_t>(args.intval("max-ecs", 1));
        dc.max_events =
            static_cast<std::uint64_t>(args.intval("max-events"));
        dc.shared_buffer = args.boolean("shared-buffer");
        for (const auto &m : set) {
            mc::DeployConfig::Proc p;
            p.model = m;
            p.precision = precision;
            dc.procs.push_back(std::move(p));
        }

        mc::DeploymentModel model(dc);
        CheckResult r;
        r.label = model.name();
        r.dpor = mc::explore(model, ecfg);
        if (compare) {
            mc::ExploreConfig naive = ecfg;
            naive.dpor = false;
            // Cap the naive search: it exists only to measure the
            // ratio, and without the reduction it can be enormous.
            naive.max_runs =
                std::max<std::uint64_t>(r.dpor.runs * 200, 2000);
            const auto nrep = mc::explore(model, naive);
            r.compared = true;
            r.naive_runs = nrep.runs;
            r.naive_capped = nrep.run_budget_hit;
            r.reduction = r.dpor.runs
                              ? static_cast<double>(nrep.runs) /
                                    static_cast<double>(r.dpor.runs)
                              : 1.0;
        }
        r.ce_path = persistCe(r.dpor, args.str("ce-dir"), r.label,
                              &dc, index++);
        printReport(r);
        if (!r.dpor.clean())
            failed = true;
        if (min_reduction > 0 && r.reduction < min_reduction) {
            std::fprintf(stderr,
                         "jetmc: reduction %.1fx below required "
                         "%.1fx for %s\n",
                         r.reduction, min_reduction,
                         r.label.c_str());
            failed = true;
        }
        results.push_back(std::move(r));
    }

    if (!args.str("json").empty())
        emitJson(args.str("json"), results);

    std::uint64_t total_runs = 0;
    for (const auto &r : results)
        total_runs += r.dpor.runs;
    std::printf("jetmc: %zu config(s), %llu runs: %s\n",
                results.size(),
                static_cast<unsigned long long>(total_runs),
                failed ? "FAILED" : "OK");
    return failed ? 1 : 0;
}
