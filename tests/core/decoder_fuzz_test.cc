/**
 * @file
 * Seeded mutation fuzzing of the three readers that take files from
 * users: engine plans (trt::Engine::deserialize), fleet replay files
 * (core::readFleetReplay) and jetmc counterexamples (mc::readCe).
 *
 * Each kind starts from one valid document: Engine::serialize() of a
 * zoo engine, the committed tests/data/fleet_replay_golden0.json and
 * a counterexample written by mc::writeCe. Every mutant (byte flips,
 * deletions, truncation, number tokens swapped for extremes,
 * duplicated spans, inserted structural characters) must either
 * decode, or fail with "<field path or document>: <reason>". No
 * mutant may abort, throw or trip a sanitizer (tools/ci.sh runs this
 * binary under ASan/UBSan), and an accepted plan must re-encode to a
 * document that decodes and re-encodes to itself.
 *
 * The seed and the budget are fixed, so every run checks the same
 * mutants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/fleet.hh"
#include "mc/ce.hh"
#include "models/zoo.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "soc/device_spec.hh"
#include "trt/builder.hh"

namespace jetsim {
namespace {

constexpr std::uint64_t kSeed = 0x5eed0f0a11ull;
constexpr int kMutantsPerKind = 1000;

/** Replacements for a number token: out of every integer field's
 * range, not finite, the wrong sign or type, or not a number. */
const std::vector<std::string> kExtremes = {
    "-1",  "2147483648", "18446744073709551616", "1e999", "-0",
    "1.5", "nan",        "\"x\"",                "null",
};

/** Mutates a valid document, one to three edits per mutant. */
class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    std::string
    operator()(std::string s)
    {
        const int edits = static_cast<int>(rng_.uniformInt(1, 3));
        for (int i = 0; i < edits && !s.empty(); ++i)
            edit(s);
        return s;
    }

  private:
    std::size_t
    below(std::size_t n)
    {
        return static_cast<std::size_t>(
            rng_.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    }

    void
    edit(std::string &s)
    {
        const std::size_t at = below(s.size());
        const std::size_t len = 1 + below(std::min<std::size_t>(
                                        16, s.size() - at));
        switch (rng_.uniformInt(0, 5)) {
          case 0: // flip one bit
            s[at] = static_cast<char>(s[at] ^ (1 << below(8)));
            break;
          case 1: // delete a span
            s.erase(at, len);
            break;
          case 2: // truncate
            s.resize(at);
            break;
          case 3: // swap a number token for an extreme
            swapNumber(s, at);
            break;
          case 4: // duplicate a span
            s.insert(below(s.size()), s.substr(at, len));
            break;
          default: { // insert a structural character
            static constexpr char kStructural[] = "{}[],:\"";
            s.insert(at, 1, kStructural[below(sizeof(kStructural) - 1)]);
          }
        }
    }

    /** Replace the first number token at or after @p from. */
    void
    swapNumber(std::string &s, std::size_t from)
    {
        const auto isNum = [](char c) {
            return (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                   c == 'e' || c == 'E' || c == '+';
        };
        for (std::size_t i = from; i < s.size(); ++i) {
            const bool starts = (s[i] >= '0' && s[i] <= '9') ||
                                s[i] == '-';
            if (!starts || (i > 0 && (isNum(s[i - 1]) || s[i - 1] == '"')))
                continue;
            std::size_t end = i;
            while (end < s.size() && isNum(s[end]))
                ++end;
            s.replace(i, end - i, kExtremes[below(kExtremes.size())]);
            return;
        }
    }

    sim::Rng rng_;
};

/** True when @p err reads "<field path or document>: <reason>", the
 * path being keys and [indices] joined by dots. An unexpected key's
 * path ends in that key, which may be any text. */
bool
namesField(const std::string &err)
{
    if (err.ends_with(": unexpected key"))
        return true;
    const auto colon = err.find(": ");
    if (colon == 0 || colon == std::string::npos || colon + 2 == err.size())
        return false;
    const std::string path = err.substr(0, colon);
    return path == "document" ||
           (path.front() >= 'a' && path.front() <= 'z' &&
            path.find_first_not_of("abcdefghijklmnopqrstuvwxyz_.[]"
                                   "0123456789") == std::string::npos);
}

std::string
slurp(const std::string &path)
{
    const auto text = sim::readFile(path);
    EXPECT_TRUE(text) << path;
    return text.value_or("");
}

/** Run @p read on every mutant of @p seed_doc. @p read returns the
 * reader's error, "" on success. */
template <class Read>
void
fuzz(const std::string &seed_doc, std::uint64_t seed, Read read)
{
    ASSERT_EQ(read(seed_doc), "") << "the seed document must decode";
    Mutator mutate(seed);
    int accepted = 0;
    for (int i = 0; i < kMutantsPerKind; ++i) {
        const std::string m = mutate(seed_doc);
        const std::string err = read(m);
        if (err.empty())
            ++accepted;
        else
            EXPECT_TRUE(namesField(err)) << "mutant " << i << ": " << err
                                         << "\n" << m;
    }
    // Most single edits break a document; a budget that accepts
    // everything is not exercising the reader.
    EXPECT_LT(accepted, kMutantsPerKind / 2);
}

/** Write @p text to a temporary file, call @p read on its path, and
 * strip the path prefix from the error. */
template <class Read>
std::string
viaFile(const std::string &text, const char *name, Read read)
{
    const std::string path = testing::TempDir() + "/" + name;
    if (!sim::writeFileAtomic(path, text))
        return "cannot write " + path;
    std::string err;
    const bool ok = read(path, err);
    std::remove(path.c_str());
    if (ok) {
        EXPECT_EQ(err, "");
        return "";
    }
    EXPECT_EQ(err.rfind(path + ": ", 0), 0u) << err;
    return err.substr(std::min(err.size(), path.size() + 2));
}

TEST(DecoderFuzz, PlanMutantsDecodeOrNameTheField)
{
    trt::BuilderConfig cfg;
    cfg.precision = soc::Precision::Int8;
    const auto engine = trt::Builder(soc::deviceByName("nano"))
                            .build(models::modelByName("resnet18"), cfg);
    fuzz(engine.serialize(), kSeed, [](const std::string &plan) {
        std::string err;
        const auto e = trt::Engine::deserialize(plan, err);
        if (!e)
            return err.empty() ? std::string("(empty message)") : err;
        EXPECT_EQ(err, "");
        // Accepted: the re-encoded plan is a fixed point.
        const std::string once = e->serialize();
        const auto again = trt::Engine::deserialize(once, err);
        EXPECT_TRUE(again) << err << "\n" << once;
        if (again) {
            EXPECT_EQ(again->serialize(), once);
        }
        return std::string();
    });
}

TEST(DecoderFuzz, ReplayMutantsDecodeOrNameTheField)
{
    const std::string golden =
        slurp(JETSIM_TEST_DATA_DIR "/fleet_replay_golden0.json");
    fuzz(golden, kSeed + 1, [](const std::string &text) {
        return viaFile(text, "fuzz_replay.json",
                       [](const std::string &path, std::string &err) {
                           core::FleetSpec spec;
                           core::FleetOptions opts;
                           return core::readFleetReplay(path, spec, opts,
                                                        err);
                       });
    });
}

TEST(DecoderFuzz, CounterExampleMutantsDecodeOrNameTheField)
{
    mc::CounterExample ce;
    ce.model = "deployment";
    ce.what = "digest-mismatch";
    ce.detail = "proc 1 \"stalled\"";
    ce.ref_digest = 0xfedcba9876543210u;
    ce.script = {0, 2, 1};
    ce.deploy.device = "nano";
    ce.deploy.procs = {{"resnet50", soc::Precision::Fp16, 1},
                       {"yolov8n", soc::Precision::Int8, 4}};
    ce.deploy.seed = 42;
    const std::string path = testing::TempDir() + "/fuzz_ce_seed.json";
    ASSERT_TRUE(mc::writeCe(ce, path));
    const std::string written = slurp(path);
    std::remove(path.c_str());

    fuzz(written, kSeed + 2, [](const std::string &text) {
        return viaFile(text, "fuzz_ce.json",
                       [](const std::string &p, std::string &err) {
                           mc::CounterExample back;
                           return mc::readCe(p, back, err);
                       });
    });
}

} // namespace
} // namespace jetsim
