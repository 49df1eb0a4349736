/**
 * @file
 * Umbrella header for the jetlint ahead-of-time analysis library.
 *
 * The paper's pitch is offline performance analysis instead of
 * trial-and-error deployment; src/lint is the static half of that
 * promise (JetSan in src/check is the runtime half). Include this to
 * get the full pipeline:
 *
 *   graph_lint   - Network structure (Gxxx rules)
 *   plan_lint    - compiled Engine plans + deployment memory (P/D)
 *   config_lint  - experiment/sweep specs, end to end (Cxxx)
 *
 * Diagnostics accumulate in a lint::Report (finding.hh) and render
 * as text, JSON, or JetSan violations. The tools/jetlint CLI fronts
 * all of it; tools/ci.sh gates on error-severity findings.
 */

#ifndef JETSIM_LINT_LINT_HH
#define JETSIM_LINT_LINT_HH

#include "lint/config_lint.hh"
#include "lint/finding.hh"
#include "lint/graph_lint.hh"
#include "lint/plan_lint.hh"
#include "lint/rules.hh"

#endif // JETSIM_LINT_LINT_HH
