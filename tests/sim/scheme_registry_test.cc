/**
 * @file
 * Tests for the string-keyed SchemeRegistry: every registered name
 * builds a spec, the built spec's display name re-resolves to an
 * equivalent spec (round-trip), and lineups preserve order.
 */

#include <gtest/gtest.h>

#include "sim/scheme_registry.hh"

namespace cdcs
{
namespace
{

TEST(SchemeRegistryTest, RegistersTheBuiltInSchemes)
{
    const auto names = SchemeRegistry::instance().names();
    ASSERT_GE(names.size(), 9u);
    auto has = [&](const char *name) {
        for (const auto &n : names) {
            if (n == name)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(has("snuca"));
    EXPECT_TRUE(has("rnuca"));
    EXPECT_TRUE(has("jigsaw-c"));
    EXPECT_TRUE(has("jigsaw-r"));
    EXPECT_TRUE(has("cdcs"));
    EXPECT_TRUE(has("jigsaw+l"));
    EXPECT_TRUE(has("jigsaw+t"));
    EXPECT_TRUE(has("jigsaw+d"));
    EXPECT_TRUE(has("jigsaw+ltd"));
}

TEST(SchemeRegistryTest, EveryNameBuildsAndReResolves)
{
    const SchemeRegistry &registry = SchemeRegistry::instance();
    for (const std::string &name : registry.names()) {
        SchemeSpec spec;
        ASSERT_TRUE(registry.build(name, &spec)) << name;
        EXPECT_FALSE(spec.name.empty()) << name;
        // Round-trip: the built spec's display name resolves back to
        // an equivalent spec.
        SchemeSpec again;
        ASSERT_TRUE(registry.build(spec.name, &again))
            << name << " -> " << spec.name;
        EXPECT_EQ(again.name, spec.name);
        EXPECT_EQ(again.kind, spec.kind);
        EXPECT_EQ(again.moves, spec.moves);
        EXPECT_EQ(again.sched, spec.sched);
    }
}

TEST(SchemeRegistryTest, BuildsExpectedSpecs)
{
    EXPECT_EQ(schemeByName("snuca").kind, SchemeKind::SNuca);
    EXPECT_EQ(schemeByName("rnuca").kind, SchemeKind::RNuca);
    EXPECT_EQ(schemeByName("cdcs").kind, SchemeKind::Partitioned);
    EXPECT_EQ(schemeByName("jigsaw-c").sched,
              InitialSched::Clustered);
    EXPECT_EQ(schemeByName("jigsaw-r").sched, InitialSched::Random);
    const SchemeSpec ltd = schemeByName("jigsaw+ltd");
    EXPECT_TRUE(ltd.cdcsOpts.latencyAwareAlloc);
    EXPECT_TRUE(ltd.cdcsOpts.placeThreads);
    EXPECT_TRUE(ltd.cdcsOpts.refineTrades);
    const SchemeSpec l = schemeByName("jigsaw+l");
    EXPECT_TRUE(l.cdcsOpts.latencyAwareAlloc);
    EXPECT_FALSE(l.cdcsOpts.placeThreads);
    EXPECT_EQ(l.name, "+L");
}

TEST(SchemeRegistryTest, UnknownNameFailsCleanly)
{
    SchemeSpec spec;
    EXPECT_FALSE(
        SchemeRegistry::instance().build("no-such-scheme", &spec));
    EXPECT_FALSE(SchemeRegistry::instance().contains("no-such"));
    EXPECT_TRUE(SchemeRegistry::instance().contains("cdcs"));
    // Display names resolve through contains() too.
    EXPECT_TRUE(SchemeRegistry::instance().contains("S-NUCA"));
}

TEST(SchemeRegistryTest, LineupPreservesOrder)
{
    const auto lineup =
        schemesByName({"cdcs", "snuca", "jigsaw-r"});
    ASSERT_EQ(lineup.size(), 3u);
    EXPECT_EQ(lineup[0].name, "CDCS");
    EXPECT_EQ(lineup[1].name, "S-NUCA");
    EXPECT_EQ(lineup[2].name, "Jigsaw+R");
}

} // anonymous namespace
} // namespace cdcs
