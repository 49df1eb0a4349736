/**
 * @file
 * ArgParser unit tests (the flag parser shared by the CLI tools).
 */

#include "argparse.hh"

#include <gtest/gtest.h>

#include <array>

namespace jetsim::tools {
namespace {

ArgParser
parser()
{
    ArgParser p("test", "test parser");
    p.add("model", "resnet50", "model name");
    p.add("batch", "1", "batch size");
    p.add("rate", "2.5", "a double");
    p.add("verbose", "false", "a boolean switch");
    p.add("list", "1,2,4", "an int list");
    p.add("precision", "fp16", "a precision name");
    return p;
}

template <std::size_t N>
bool
parse(ArgParser &p, std::array<const char *, N> argv)
{
    return p.parse(static_cast<int>(N),
                   const_cast<char **>(argv.data()));
}

TEST(ArgParse, DefaultsApplyWhenUnset)
{
    auto p = parser();
    ASSERT_TRUE(parse(p, std::array<const char *, 1>{"test"}));
    EXPECT_EQ(p.str("model"), "resnet50");
    EXPECT_EQ(p.intval("batch"), 1);
    EXPECT_DOUBLE_EQ(p.dbl("rate"), 2.5);
    EXPECT_FALSE(p.boolean("verbose"));
    EXPECT_FALSE(p.given("model"));
}

TEST(ArgParse, EqualsSyntax)
{
    auto p = parser();
    ASSERT_TRUE(parse(p, std::array<const char *, 3>{
                             "test", "--model=yolov8n",
                             "--batch=8"}));
    EXPECT_EQ(p.str("model"), "yolov8n");
    EXPECT_EQ(p.intval("batch"), 8);
    EXPECT_TRUE(p.given("model"));
}

TEST(ArgParse, SpaceSyntax)
{
    auto p = parser();
    ASSERT_TRUE(parse(p, std::array<const char *, 5>{
                             "test", "--model", "fcn_resnet50",
                             "--rate", "9.75"}));
    EXPECT_EQ(p.str("model"), "fcn_resnet50");
    EXPECT_DOUBLE_EQ(p.dbl("rate"), 9.75);
}

TEST(ArgParse, BareFlagIsBooleanTrue)
{
    auto p = parser();
    ASSERT_TRUE(parse(p, std::array<const char *, 2>{"test",
                                                     "--verbose"}));
    EXPECT_TRUE(p.boolean("verbose"));
}

TEST(ArgParse, BareFlagBeforeAnotherFlag)
{
    auto p = parser();
    ASSERT_TRUE(parse(p, std::array<const char *, 3>{
                             "test", "--verbose", "--batch=4"}));
    EXPECT_TRUE(p.boolean("verbose"));
    EXPECT_EQ(p.intval("batch"), 4);
}

TEST(ArgParse, IntListParses)
{
    auto p = parser();
    ASSERT_TRUE(parse(p, std::array<const char *, 2>{
                             "test", "--list=1,2,4,16"}));
    EXPECT_EQ(p.intlist("list"),
              (std::vector<int>{1, 2, 4, 16}));
}

TEST(ArgParse, IntListDefault)
{
    auto p = parser();
    ASSERT_TRUE(parse(p, std::array<const char *, 1>{"test"}));
    EXPECT_EQ(p.intlist("list"), (std::vector<int>{1, 2, 4}));
}

TEST(ArgParse, UnknownFlagFails)
{
    auto p = parser();
    EXPECT_FALSE(parse(p, std::array<const char *, 2>{
                              "test", "--nope=1"}));
}

TEST(ArgParse, PositionalArgumentFails)
{
    auto p = parser();
    EXPECT_FALSE(
        parse(p, std::array<const char *, 2>{"test", "oops"}));
}

TEST(ArgParse, BooleanSpellings)
{
    for (const char *v : {"true", "1", "yes", "on"}) {
        auto p = parser();
        const std::string flag = std::string("--verbose=") + v;
        ASSERT_TRUE(parse(p, std::array<const char *, 2>{
                                 "test", flag.c_str()}));
        EXPECT_TRUE(p.boolean("verbose")) << v;
    }
    auto p = parser();
    ASSERT_TRUE(parse(p, std::array<const char *, 2>{
                             "test", "--verbose=off"}));
    EXPECT_FALSE(p.boolean("verbose"));
}

TEST(ArgParse, MalformedNumbersExitNamingTheFlag)
{
    auto p = parser();
    ASSERT_TRUE(parse(p, std::array<const char *, 4>{
                             "test", "--batch=12abc", "--rate=1e999",
                             "--list=1,,4"}));
    const auto user_error = testing::ExitedWithCode(1);
    EXPECT_EXIT(p.intval("batch"), user_error,
                "--batch: '12abc' is not an integer");
    EXPECT_EXIT(p.dbl("rate"), user_error,
                "--rate: '1e999' is not a number");
    EXPECT_EXIT(p.intlist("list"), user_error,
                "--list: '' is not an integer");

    auto q = parser();
    ASSERT_TRUE(parse(q, std::array<const char *, 4>{
                             "test", "--batch=0", "--rate=-0.5",
                             "--list=1,0"}));
    EXPECT_EXIT(q.intval("batch", 1), user_error,
                "--batch: '0' is not an integer in \\[1, ");
    EXPECT_EXIT(q.dbl("rate", 0.0, 1.0), user_error,
                "--rate: '-0.5' is not a number in \\[0, 1\\]");
    EXPECT_EXIT(q.intlist("list", 1), user_error,
                "--list: '0' is not an integer in \\[1, ");
    EXPECT_EQ(q.intval("batch", 0), 0);
    EXPECT_EQ(q.dbl("rate", -1.0, 0.0), -0.5);
    EXPECT_EQ(q.intlist("list", 0), (std::vector<int>{1, 0}));
}

TEST(ArgParse, ChoicesOutsideTheirSetExitNamingTheFlag)
{
    auto p = parser();
    ASSERT_TRUE(parse(p, std::array<const char *, 3>{
                             "test", "--model=vgg16", "--precision=bf16"}));
    const auto user_error = testing::ExitedWithCode(1);
    EXPECT_EXIT(p.choice("model", {"resnet50", "yolov8n"}), user_error,
                "--model: 'vgg16' is not one of resnet50, yolov8n");
    EXPECT_EXIT(p.precision("precision"), user_error,
                "--precision: 'bf16' is not one of int8, fp16, tf32, "
                "fp32");

    auto q = parser();
    ASSERT_TRUE(parse(q, std::array<const char *, 1>{"test"}));
    EXPECT_EQ(q.choice("model", {"yolov8n", "resnet50"}), "resnet50");
    EXPECT_EQ(q.precision("precision"), soc::Precision::Fp16);
}

} // namespace
} // namespace jetsim::tools
