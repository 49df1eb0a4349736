/**
 * @file
 * Minimal command-line flag parser for the jetsim tools.
 *
 * Supports `--flag=value`, `--flag value` and boolean `--flag`
 * switches, with typed accessors, defaults, and generated help. A
 * numeric accessor on a value that is not wholly a number in range,
 * or a choice accessor on a value outside its set, is a user error:
 * fatal() naming the flag, exit 1.
 */

#ifndef JETSIM_TOOLS_ARGPARSE_HH
#define JETSIM_TOOLS_ARGPARSE_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/json.hh"
#include "sim/logging.hh"
#include "soc/precision.hh"

namespace jetsim::tools {

/** Declarative flag set with typed lookup. */
class ArgParser
{
  public:
    ArgParser(std::string program, std::string description)
        : program_(std::move(program)),
          description_(std::move(description))
    {
    }

    /** Declare a flag (name without the leading dashes). */
    void
    add(const std::string &name, const std::string &default_value,
        const std::string &help)
    {
        order_.push_back(name);
        defaults_[name] = default_value;
        help_[name] = help;
    }

    /**
     * Parse argv. Unknown flags or `--help` print usage; unknown
     * flags exit non-zero.
     */
    bool
    parse(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                usage();
                std::exit(0);
            }
            if (arg.rfind("--", 0) != 0) {
                std::fprintf(stderr, "%s: unexpected argument '%s'\n",
                             program_.c_str(), arg.c_str());
                usage();
                return false;
            }
            arg = arg.substr(2);
            std::string value;
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                value = arg.substr(eq + 1);
                arg = arg.substr(0, eq);
            }
            if (!defaults_.count(arg)) {
                std::fprintf(stderr, "%s: unknown flag '--%s'\n",
                             program_.c_str(), arg.c_str());
                usage();
                return false;
            }
            if (eq == std::string::npos) {
                // `--flag value` unless the next token is a flag or
                // missing (then it is a boolean switch).
                if (i + 1 < argc &&
                    std::string(argv[i + 1]).rfind("--", 0) != 0)
                    value = argv[++i];
                else
                    value = "true";
            }
            values_[arg] = value;
        }
        return true;
    }

    std::string
    str(const std::string &name) const
    {
        auto it = values_.find(name);
        if (it != values_.end())
            return it->second;
        return defaults_.at(name);
    }

    /** Integer value, at least @p lo. */
    int
    intval(const std::string &name,
           int lo = std::numeric_limits<int>::min()) const
    {
        return number<int>(name, str(name), lo,
                           std::numeric_limits<int>::max());
    }

    /** Finite number in [@p lo, @p hi]. */
    double
    dbl(const std::string &name, double lo = -HUGE_VAL,
        double hi = HUGE_VAL) const
    {
        return number<double>(name, str(name), lo, hi);
    }

    bool
    boolean(const std::string &name) const
    {
        const auto v = str(name);
        return v == "true" || v == "1" || v == "yes" || v == "on";
    }

    /** Comma-separated integer list ("1,2,4" -> {1,2,4}), each item
     * at least @p lo. */
    std::vector<int>
    intlist(const std::string &name,
            int lo = std::numeric_limits<int>::min()) const
    {
        std::vector<int> out;
        const std::string v = str(name);
        std::size_t pos = 0;
        while (pos < v.size()) {
            const auto comma = v.find(',', pos);
            const auto end =
                comma == std::string::npos ? v.size() : comma;
            out.push_back(number<int>(name, v.substr(pos, end - pos),
                                      lo,
                                      std::numeric_limits<int>::max()));
            pos = end + 1;
        }
        return out;
    }

    /** Value that is one of @p allowed. */
    std::string
    choice(const std::string &name,
           const std::vector<std::string> &allowed) const
    {
        const std::string v = str(name);
        if (std::find(allowed.begin(), allowed.end(), v) ==
            allowed.end()) {
            std::string list;
            for (const auto &a : allowed)
                list += (list.empty() ? "" : ", ") + a;
            sim::fatal("%s: --%s: '%s' is not one of %s",
                       program_.c_str(), name.c_str(), v.c_str(),
                       list.c_str());
        }
        return v;
    }

    /** Value as a precision name ("int8", "fp16", "tf32", "fp32"). */
    soc::Precision
    precision(const std::string &name) const
    {
        std::vector<std::string> names;
        for (const auto p : soc::kAllPrecisions)
            names.emplace_back(soc::name(p));
        return soc::precisionFromName(choice(name, names));
    }

    /** True when the user supplied the flag explicitly. */
    bool given(const std::string &name) const
    {
        return values_.count(name) > 0;
    }

    void
    usage() const
    {
        std::fprintf(stderr, "%s - %s\n\nflags:\n", program_.c_str(),
                     description_.c_str());
        for (const auto &name : order_)
            std::fprintf(stderr, "  --%-14s %s (default: %s)\n",
                         name.c_str(), help_.at(name).c_str(),
                         defaults_.at(name).c_str());
    }

  private:
    /** @p v as a T in [@p lo, @p hi], or fatal() naming the flag. */
    template <class T>
    T
    number(const std::string &name, const std::string &v, double lo,
           double hi) const
    {
        const auto x = core::parseNumber<T>(v);
        if (!x || *x < lo || *x > hi)
            sim::fatal("%s: --%s: '%s' is not %s in [%.17g, %.17g]",
                       program_.c_str(), name.c_str(), v.c_str(),
                       std::is_integral_v<T> ? "an integer" : "a number",
                       lo, hi);
        return *x;
    }

    std::string program_;
    std::string description_;
    std::vector<std::string> order_;
    std::map<std::string, std::string> defaults_;
    std::map<std::string, std::string> help_;
    std::map<std::string, std::string> values_;
};

} // namespace jetsim::tools

#endif // JETSIM_TOOLS_ARGPARSE_HH
