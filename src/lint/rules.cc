#include "lint/rules.hh"

namespace jetsim::lint {

namespace {

using check::Severity;

constexpr RuleInfo kRules[] = {
    {"G001", "graph-cycle", Severity::Error,
     "layer dependency cycle: the graph is not a DAG and cannot be "
     "scheduled"},
    {"G002", "dangling-input", Severity::Error,
     "layer references a producer id outside the graph"},
    {"G003", "shape-mismatch", Severity::Error,
     "consumer's recorded input or inferred output shape disagrees "
     "with its producers"},
    {"G004", "bad-dims", Severity::Error,
     "tensor shape with a zero or negative dimension"},
    {"G005", "dead-layer", Severity::Warning,
     "layer does not contribute to the network output (unreachable "
     "or unconsumed)"},
    {"G006", "missing-input-layer", Severity::Error,
     "graph does not start with a single Input layer, or a non-input "
     "layer has no producers"},
    {"G007", "bad-op-params", Severity::Error,
     "operator parameters are impossible (stride/kernel <= 0, groups "
     "not dividing channels, empty slice, ...)"},

    {"P001", "precision-mismatch", Severity::Error,
     "kernel precision is neither the requested precision nor the "
     "fp32 fallback path"},
    {"P002", "empty-plan", Severity::Error,
     "engine plan contains no kernels"},
    {"P003", "bad-kernel-numbers", Severity::Error,
     "kernel with non-finite or out-of-range flops/bytes/efficiency "
     "fields"},
    {"P004", "tc-without-tensor-cores", Severity::Error,
     "tensor-core kernel in a plan targeting a device without tensor "
     "cores (or on the fp32 path)"},
    {"P005", "bad-plan-batch", Severity::Error,
     "engine compiled for a non-positive batch size"},
    {"P006", "fallback-mismatch", Severity::Warning,
     "fallback-op count is inconsistent with the plan's precision "
     "mix"},
    {"P007", "no-weight-memory", Severity::Warning,
     "plan has compute kernels but pins no weight memory"},

    {"D001", "over-capacity", Severity::Error,
     "deployment footprint exceeds the device's available unified "
     "memory (runtime OOM, cf. paper's Nano FCN_ResNet50 failure)"},
    {"D002", "near-capacity", Severity::Warning,
     "deployment leaves less than 10 % unified-memory headroom"},

    {"C001", "unknown-device", Severity::Error,
     "device name is not in the board catalogue"},
    {"C002", "unknown-model", Severity::Error,
     "model name is not in the zoo"},
    {"C003", "bad-batch", Severity::Error,
     "batch size non-positive, or beyond the paper's swept grid "
     "(warning)"},
    {"C004", "bad-processes", Severity::Error,
     "process count non-positive, or oversubscribing every CPU core "
     "with spin-wait processes (warning)"},
    {"C005", "bad-window", Severity::Error,
     "non-positive measurement duration or negative warm-up"},
    {"C006", "partial-precision-coverage", Severity::Info,
     "device lacks native kernels for part of the model at this "
     "precision; fp32 fallbacks will dilute the result"},
    {"C007", "spatial-sharing-unsupported", Severity::Warning,
     "MPS-style spatial GPU sharing enabled on a device that "
     "time-multiplexes channels"},
    {"C008", "bad-pre-enqueue", Severity::Error,
     "negative pre-enqueue depth, or a depth far beyond trtexec "
     "practice (warning)"},
};

} // namespace

const RuleInfo &
ruleInfo(Rule r)
{
    return kRules[static_cast<int>(r)];
}

const std::vector<Rule> &
allRules()
{
    static const std::vector<Rule> rules = [] {
        std::vector<Rule> v;
        constexpr int n =
            static_cast<int>(sizeof(kRules) / sizeof(kRules[0]));
        v.reserve(n);
        for (int i = 0; i < n; ++i)
            v.push_back(static_cast<Rule>(i));
        return v;
    }();
    return rules;
}

} // namespace jetsim::lint
