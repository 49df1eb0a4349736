#include "lint/finding.hh"

#include <cstdio>
#include <string_view>

#include "sim/json.hh"

namespace jetsim::lint {

std::string
Finding::str() const
{
    const RuleInfo &info = ruleInfo(rule);
    std::string out = std::string(check::severityName(severity)) +
                      " [" + info.id + "] " + component;
    if (!location.empty())
        out += " " + location;
    out += ": " + message;
    if (!hint.empty())
        out += " (fix: " + hint + ")";
    return out;
}

void
Report::add(Rule rule, std::string component, std::string location,
            std::string message, std::string hint)
{
    add(rule, ruleInfo(rule).severity, std::move(component),
        std::move(location), std::move(message), std::move(hint));
}

void
Report::add(Rule rule, check::Severity severity, std::string component,
            std::string location, std::string message, std::string hint)
{
    Finding f;
    f.rule = rule;
    f.severity = severity;
    f.component = std::move(component);
    f.location = std::move(location);
    f.message = std::move(message);
    f.hint = std::move(hint);
    findings_.push_back(std::move(f));
}

int
Report::count(check::Severity s) const
{
    int n = 0;
    for (const auto &f : findings_)
        if (f.severity == s)
            ++n;
    return n;
}

std::vector<Finding>
Report::byRule(Rule r) const
{
    std::vector<Finding> out;
    for (const auto &f : findings_)
        if (f.rule == r)
            out.push_back(f);
    return out;
}

std::string
Report::text() const
{
    std::string out;
    for (const auto &f : findings_)
        out += f.str() + "\n";
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "jetlint: %d error(s), %d warning(s), %d info\n",
                  errors(), warnings(),
                  count(check::Severity::Info));
    out += buf;
    return out;
}

std::string
Report::json() const
{
    std::string out = "{\"schema_version\":" +
                      std::to_string(kJsonSchemaVersion) +
                      ",\"findings\":[";
    auto member = [&out](const char *key, std::string_view value) {
        if (out.back() != '{')
            out += ',';
        sim::putJsonString(out, key);
        out += ':';
        sim::putJsonString(out, value);
    };
    for (const auto &f : findings_) {
        if (out.back() != '[')
            out += ',';
        const RuleInfo &info = ruleInfo(f.rule);
        out += '{';
        member("rule", info.id);
        member("title", info.title);
        member("severity", check::severityName(f.severity));
        member("component", f.component);
        member("location", f.location);
        member("message", f.message);
        member("hint", f.hint);
        out += '}';
    }
    out += "],\"errors\":" + std::to_string(errors()) +
           ",\"warnings\":" + std::to_string(warnings()) +
           ",\"infos\":" +
           std::to_string(count(check::Severity::Info)) + "}";
    return out;
}

} // namespace jetsim::lint
