/**
 * @file
 * Structured lint diagnostics.
 *
 * Every jetlint pass appends Findings to one Report. A finding pairs
 * a catalogue rule with the concrete artifact it fired on (component
 * + location), a message with the offending numbers, and — where the
 * fix is mechanical — a hint. The report renders as human-readable
 * text or as JSON for CI tooling.
 */

#ifndef JETSIM_LINT_FINDING_HH
#define JETSIM_LINT_FINDING_HH

#include <string>
#include <vector>

#include "check/invariant.hh"
#include "lint/rules.hh"

namespace jetsim::lint {

/**
 * Version of the machine-readable JSON emitted by the static tools
 * (jetlint Report::json() and the jetbound CLI share it). Bump when
 * a field is renamed or removed; adding fields is compatible.
 */
inline constexpr int kJsonSchemaVersion = 1;

/** One diagnostic produced by a lint pass. */
struct Finding
{
    Rule rule = Rule::GraphCycle;
    check::Severity severity = check::Severity::Error;
    std::string component; ///< e.g. "graph.resnet50", "config"
    std::string location;  ///< e.g. "layer 12 (conv3)"; may be empty
    std::string message;   ///< what is wrong, with numbers
    std::string hint;      ///< how to fix it; may be empty

    /** One-line rendering:
     * `error [G001] graph.m layer 3: msg (fix: hint)` */
    std::string str() const;
};

/** Accumulates findings across lint passes. */
class Report
{
  public:
    /** Append a finding at the rule's default severity. */
    void add(Rule rule, std::string component, std::string location,
             std::string message, std::string hint = "");

    /** Append a finding with an explicit severity override. */
    void add(Rule rule, check::Severity severity,
             std::string component, std::string location,
             std::string message, std::string hint = "");

    const std::vector<Finding> &findings() const { return findings_; }

    int count(check::Severity s) const;
    int errors() const { return count(check::Severity::Error); }
    int warnings() const { return count(check::Severity::Warning); }

    /** Findings matching one rule (test convenience). */
    std::vector<Finding> byRule(Rule r) const;

    /** True when no error-severity findings were recorded. */
    bool clean() const { return errors() == 0; }

    /** Human-readable rendering: one line per finding + summary. */
    std::string text() const;

    /** Machine-readable rendering (stable field order). */
    std::string json() const;

  private:
    std::vector<Finding> findings_;
};

} // namespace jetsim::lint

#endif // JETSIM_LINT_FINDING_HH
