/**
 * @file
 * The jetlint rule catalogue.
 *
 * Every ahead-of-time diagnostic the linter can produce belongs to
 * exactly one rule, identified by a stable short id ("G001") that is
 * safe to grep, suppress, or gate CI on. Rules are grouped by the
 * artifact they inspect:
 *
 *   Gxxx  graph::Network structure (cycles, shapes, dead layers)
 *   Pxxx  trt::Engine plans (precision mix, kernel plausibility)
 *   Dxxx  deployment footprint vs. a soc::DeviceSpec
 *   Cxxx  experiment/sweep configuration plausibility
 *
 * The catalogue is data, not behaviour: ruleInfo() backs the CLI's
 * `--list-rules`, the README table, and the default severity each
 * finding carries.
 */

#ifndef JETSIM_LINT_RULES_HH
#define JETSIM_LINT_RULES_HH

#include <vector>

#include "check/invariant.hh"

namespace jetsim::lint {

/** Every diagnostic the linter can emit. */
enum class Rule {
    // Graph structure.
    GraphCycle,          ///< G001 dependency cycle among layers
    GraphDanglingInput,  ///< G002 layer reference outside the graph
    GraphShapeMismatch,  ///< G003 consumer/producer shape disagreement
    GraphBadDims,        ///< G004 zero or negative tensor dimension
    GraphDeadLayer,      ///< G005 layer not contributing to the output
    GraphMissingInput,   ///< G006 malformed input-layer structure
    GraphBadOpParams,    ///< G007 impossible operator parameters

    // Engine plans.
    PlanPrecisionMismatch, ///< P001 kernel precision outside the plan
    PlanEmpty,             ///< P002 plan with no kernels
    PlanBadKernelNumbers,  ///< P003 non-finite/out-of-range kernel data
    PlanTcWithoutTc,       ///< P004 TC kernel on a TC-less device
    PlanBadBatch,          ///< P005 non-positive or off-grid batch
    PlanFallbackMismatch,  ///< P006 fallback count vs precision mix
    PlanNoWeightMemory,    ///< P007 compute kernels but no weight bytes

    // Deployment footprint.
    DeployOverCapacity,  ///< D001 deployment exceeds unified memory
    DeployNearCapacity,  ///< D002 deployment leaves <10 % headroom

    // Experiment configs.
    ConfigUnknownDevice,     ///< C001 device name not in the catalogue
    ConfigUnknownModel,      ///< C002 model name not in the zoo
    ConfigBadBatch,          ///< C003 batch outside the paper's grid
    ConfigBadProcesses,      ///< C004 process count implausible
    ConfigBadWindow,         ///< C005 non-positive measurement window
    ConfigPrecisionCoverage, ///< C006 precision with partial coverage
    ConfigSpatialSharing,    ///< C007 MPS-style sharing on Jetson
    ConfigBadPreEnqueue,     ///< C008 pre-enqueue depth implausible
};

/** Static description of one rule. */
struct RuleInfo
{
    const char *id;    ///< stable short id, e.g. "G001"
    const char *title; ///< kebab-case summary, e.g. "graph-cycle"
    check::Severity severity; ///< default severity of findings
    const char *description;  ///< one-line prose for --list-rules
};

/** Catalogue entry for @p r. */
const RuleInfo &ruleInfo(Rule r);

/** Every rule in catalogue order (drives --list-rules and docs). */
const std::vector<Rule> &allRules();

} // namespace jetsim::lint

#endif // JETSIM_LINT_RULES_HH
