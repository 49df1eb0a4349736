/**
 * @file
 * Report/Finding emitter tests: severity accounting, text and JSON
 * rendering, and forwarding into the JetSan reporter.
 */

#include "lint/finding.hh"

#include <gtest/gtest.h>


namespace jetsim::lint {
namespace {

TEST(Report, DefaultSeverityComesFromTheRuleCatalogue)
{
    Report rep;
    rep.add(Rule::GraphCycle, "graph.m", "layer 3", "cycle");
    rep.add(Rule::GraphDeadLayer, "graph.m", "layer 4", "dead");
    ASSERT_EQ(rep.findings().size(), 2u);
    EXPECT_EQ(rep.findings()[0].severity, check::Severity::Error);
    EXPECT_EQ(rep.findings()[1].severity, check::Severity::Warning);
    EXPECT_EQ(rep.errors(), 1);
    EXPECT_EQ(rep.warnings(), 1);
    EXPECT_FALSE(rep.clean());
}

TEST(Report, ExplicitSeverityOverridesTheDefault)
{
    Report rep;
    rep.add(Rule::ConfigBadBatch, check::Severity::Warning, "config",
            "", "batch 64 beyond grid");
    EXPECT_EQ(rep.errors(), 0);
    EXPECT_EQ(rep.warnings(), 1);
    EXPECT_TRUE(rep.clean());
}

TEST(Report, ByRuleFiltersFindings)
{
    Report rep;
    rep.add(Rule::PlanEmpty, "plan", "", "a");
    rep.add(Rule::PlanBadBatch, "plan", "", "b");
    rep.add(Rule::PlanEmpty, "plan", "", "c");
    EXPECT_EQ(rep.byRule(Rule::PlanEmpty).size(), 2u);
    EXPECT_EQ(rep.byRule(Rule::PlanBadBatch).size(), 1u);
    EXPECT_EQ(rep.byRule(Rule::PlanTcWithoutTc).size(), 0u);
}

TEST(Report, TextRenderingCarriesRuleIdAndHint)
{
    Report rep;
    rep.add(Rule::DeployOverCapacity, "deploy.nano", "", "needs more",
            "reduce processes");
    const auto text = rep.text();
    EXPECT_NE(text.find("[D001]"), std::string::npos);
    EXPECT_NE(text.find("deploy.nano"), std::string::npos);
    EXPECT_NE(text.find("fix: reduce processes"), std::string::npos);
    EXPECT_NE(text.find("1 error(s)"), std::string::npos);
}

TEST(Report, JsonRenderingEscapesAndCounts)
{
    Report rep;
    rep.add(Rule::GraphShapeMismatch, "graph.m", "layer 1",
            "shape \"8x8\"\nmismatch");
    const auto json = rep.json();
    EXPECT_NE(json.find("\"rule\":\"G003\""), std::string::npos);
    EXPECT_NE(json.find("\\\"8x8\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
    EXPECT_EQ(json.find("\n"), std::string::npos) << "raw newline";
    EXPECT_EQ(json,
              "{\"schema_version\":1,\"findings\":[{\"rule\":\"G003\","
              "\"title\":\"shape-mismatch\",\"severity\":\"error\","
              "\"component\":\"graph.m\",\"location\":\"layer 1\","
              "\"message\":\"shape \\\"8x8\\\"\\nmismatch\",\"hint\":\"\"}],"
              "\"errors\":1,\"warnings\":0,\"infos\":0}");
}

TEST(Rules, CatalogueIsCompleteAndWellFormed)
{
    for (const auto rule : allRules()) {
        const auto &info = ruleInfo(rule);
        ASSERT_NE(info.id, nullptr);
        EXPECT_EQ(std::string(info.id).size(), 4u);
        EXPECT_NE(std::string(info.title), "");
        EXPECT_NE(std::string(info.description), "");
    }
}

} // namespace
} // namespace jetsim::lint
