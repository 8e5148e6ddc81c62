/**
 * @file
 * Tests for the typed key=value override parser behind
 * `cdcs_studies --set`: good and bad keys, type mismatches,
 * last-one-wins ordering, the cross-key bank-geometry check, and the
 * default < environment < override precedence of the knob resolution,
 * and the model-name lists against the models Platform builds.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/overrides.hh"
#include "sim/platform.hh"

namespace cdcs
{
namespace
{

TEST(OverridesTest, AppliesTypedConfigKeys)
{
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("meshWidth=16", &err)) << err;
    ASSERT_TRUE(ov.add("bankLines=4096", &err)) << err;
    ASSERT_TRUE(ov.add("monitorSmoothing=0.25", &err)) << err;
    ASSERT_TRUE(ov.add("memPlacement=first-touch", &err)) << err;
    ASSERT_TRUE(ov.add("epochAccesses=12345", &err)) << err;
    ASSERT_TRUE(ov.add("warmup=1", &err)) << err;
    ASSERT_TRUE(ov.add("seed=99", &err)) << err;

    SystemConfig cfg;
    ov.apply(cfg);
    EXPECT_EQ(cfg.meshWidth, 16);
    EXPECT_EQ(cfg.bankLines, 4096u);
    EXPECT_DOUBLE_EQ(cfg.monitorSmoothing, 0.25);
    EXPECT_EQ(cfg.memPlacement, "first-touch");
    EXPECT_EQ(cfg.accessesPerThreadEpoch, 12345u);
    EXPECT_EQ(cfg.warmupEpochs, 1);
    EXPECT_EQ(cfg.seed, 99u);
    // Untouched fields keep their defaults.
    EXPECT_EQ(cfg.meshHeight, SystemConfig{}.meshHeight);
}

TEST(OverridesTest, RejectsUnknownKeys)
{
    Overrides ov;
    std::string err;
    EXPECT_FALSE(ov.add("notAKey=3", &err));
    EXPECT_NE(err.find("notAKey"), std::string::npos);
}

TEST(OverridesTest, RejectsMalformedInput)
{
    Overrides ov;
    std::string err;
    EXPECT_FALSE(ov.add("meshWidth", &err));
    EXPECT_FALSE(ov.add("=3", &err));
}

TEST(OverridesTest, RejectsTypeMismatches)
{
    Overrides ov;
    std::string err;
    EXPECT_FALSE(ov.add("meshWidth=abc", &err));
    EXPECT_NE(err.find("meshWidth"), std::string::npos);
    EXPECT_FALSE(ov.add("monitorSmoothing=fast", &err));
    EXPECT_FALSE(ov.add("traceIpc=maybe", &err));
    EXPECT_FALSE(ov.add("bankLines=-5", &err));
    EXPECT_FALSE(ov.add("meshWidth=", &err));
    // Whitespace must not smuggle a sign past the uint guard
    // (strtoull skips it and wraps negatives to near-2^64).
    EXPECT_FALSE(ov.add("bankLines= -5", &err));
    EXPECT_FALSE(ov.add("bankLines= 5", &err));
    EXPECT_FALSE(ov.add("epochs= 3", &err));
    EXPECT_FALSE(ov.add("bankLines=5x", &err));
    // Range floors reject values that would only panic deep inside
    // the simulator (zero-sized mesh, negative epoch counts).
    EXPECT_FALSE(ov.add("meshWidth=0", &err));
    EXPECT_NE(err.find("minimum"), std::string::npos);
    EXPECT_FALSE(ov.add("bankWays=0", &err));
    EXPECT_FALSE(ov.add("epochs=-1", &err));
    EXPECT_TRUE(ov.add("epochs=0", &err)) << err;   // Degenerate OK.
    EXPECT_TRUE(ov.add("warmup=0", &err)) << err;
    EXPECT_TRUE(ov.add("epochAccesses=0", &err)) << err;
    // Nothing half-applied: the config stays at defaults.
    SystemConfig cfg;
    ov.apply(cfg);
    EXPECT_EQ(cfg.meshWidth, SystemConfig{}.meshWidth);
}

TEST(OverridesTest, ValidatesBankGeometry)
{
    // Geometries the tag store cannot build are rejected with a
    // message instead of reaching its constructor asserts.
    const auto check = [](const std::vector<std::string> &kvs) {
        Overrides ov;
        std::string err;
        for (const std::string &kv : kvs)
            EXPECT_TRUE(ov.add(kv, &err)) << err;
        err.clear();
        const bool ok = ov.validate(&err);
        EXPECT_EQ(ok, err.empty()) << err;
        return err;
    };
    EXPECT_EQ(check({}), "");
    EXPECT_EQ(check({"bankLines=4096"}), "");
    EXPECT_EQ(check({"bankWays=256", "bankLines=65536"}), "");
    // 12-way banks need both keys; neither order is rejected midway.
    EXPECT_EQ(check({"bankWays=12", "bankLines=6144"}), "");
    EXPECT_EQ(check({"bankLines=6144", "bankWays=12"}), "");
    EXPECT_NE(check({"bankLines=1000"}).find("multiple of bankWays"),
              std::string::npos);
    EXPECT_NE(check({"bankWays=12"}).find("multiple of bankWays"),
              std::string::npos);
    EXPECT_NE(check({"bankLines=12288"}).find("power of two"),
              std::string::npos);
    EXPECT_NE(check({"bankWays=512", "bankLines=65536"}).find("8-bit"),
              std::string::npos);
    // A value that would wrap in the 32-bit field is caught before.
    EXPECT_NE(check({"bankWays=4294967312"}).find("8-bit"),
              std::string::npos);
    EXPECT_NE(check({"bankLines=8192", "bankLines=8000"})
                  .find("bankLines=8000"),
              std::string::npos);
}

TEST(OverridesTest, LastValueWins)
{
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("meshWidth=8", &err));
    ASSERT_TRUE(ov.add("meshWidth=12", &err));
    SystemConfig cfg;
    ov.apply(cfg);
    EXPECT_EQ(cfg.meshWidth, 12);
}

TEST(OverridesTest, KnobPrecedenceOverEnv)
{
    // Default < environment < --set.
    Overrides ov;
    EXPECT_EQ(ov.knob("mixes", "CDCS_TEST_KNOB", 4), 4u);

    ::setenv("CDCS_TEST_KNOB", "7", 1);
    EXPECT_EQ(ov.knob("mixes", "CDCS_TEST_KNOB", 4), 7u);

    std::string err;
    ASSERT_TRUE(ov.add("mixes=9", &err));
    EXPECT_EQ(ov.knob("mixes", "CDCS_TEST_KNOB", 4), 9u);
    ::unsetenv("CDCS_TEST_KNOB");
    EXPECT_EQ(ov.knob("mixes", "CDCS_TEST_KNOB", 4), 9u);
}

TEST(OverridesTest, StringKnobPrecedence)
{
    Overrides ov;
    EXPECT_EQ(ov.strKnob("jsonDir", "CDCS_TEST_DIR", "dflt"), "dflt");
    ::setenv("CDCS_TEST_DIR", "/from/env", 1);
    EXPECT_EQ(ov.strKnob("jsonDir", "CDCS_TEST_DIR", "dflt"),
              "/from/env");
    std::string err;
    ASSERT_TRUE(ov.add("jsonDir=/from/set", &err));
    EXPECT_EQ(ov.strKnob("jsonDir", "CDCS_TEST_DIR", "dflt"),
              "/from/set");
    ::unsetenv("CDCS_TEST_DIR");
}

TEST(OverridesTest, BoolKnobAcceptsWordForms)
{
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("cache=true", &err)) << err;
    EXPECT_EQ(ov.knob("cache", nullptr, 0), 1u);
}

TEST(OverridesTest, ModelNameListsMatchPlatform)
{
    SystemConfig base;
    base.meshWidth = 4;
    base.meshHeight = 4;
    base.bankLines = 1024;
    const SchemeSpec scheme = SchemeSpec::snuca();
    const WorkloadMix mix = buildMix(MixSpec::cpu(4, 7));

    struct ModelKey
    {
        const char *key;
        void (*set)(SystemConfig &, const std::string &);
        /** Name of the model Platform built; null when it builds none. */
        const char *(*built)(const Platform &);
    };
    const ModelKey keys[] = {
        {"noc",
         [](SystemConfig &c, const std::string &v) { c.nocModel = v; },
         [](const Platform &p) { return p.noc->name(); }},
        {"memPlacement",
         [](SystemConfig &c, const std::string &v) {
             c.memPlacement = v;
         },
         [](const Platform &p) { return p.memPlacement->name(); }},
        {"memTiering",
         [](SystemConfig &c, const std::string &v) {
             c.memTiering = v;
             c.farMemRatio = 0.5; // Only a far tier builds one.
         },
         [](const Platform &p) { return p.tiering->name(); }},
        {"placementCost",
         [](SystemConfig &c, const std::string &v) {
             c.placementCost = v;
         },
         nullptr},
    };
    for (const ModelKey &k : keys) {
        const std::vector<std::string> names = Overrides::choices(k.key);
        ASSERT_FALSE(names.empty()) << k.key;
        for (const std::string &name : names) {
            Overrides ov;
            std::string err;
            EXPECT_TRUE(ov.add(std::string(k.key) + "=" + name, &err))
                << err;
            if (std::string(k.key) == "memTiering") {
                EXPECT_TRUE(ov.add("farMemRatio=0.5", &err)) << err;
            }
            SystemConfig cfg = base;
            ov.apply(cfg);
            const Platform platform(cfg, scheme, mix);
            if (k.built != nullptr) {
                EXPECT_EQ(std::string(k.built(platform)), name);
            }
        }

        // A bogus name is rejected before any run, naming itself and
        // every accepted value...
        Overrides ov;
        std::string err;
        EXPECT_FALSE(ov.add(std::string(k.key) + "=bogus", &err));
        EXPECT_NE(err.find("'bogus'"), std::string::npos) << err;
        for (const std::string &name : names)
            EXPECT_NE(err.find(" " + name), std::string::npos) << err;
        // ...and dies in Platform when a programmatic config sets it.
        SystemConfig cfg = base;
        k.set(cfg, "bogus");
        EXPECT_DEATH(Platform(cfg, scheme, mix), "unknown .* 'bogus'")
            << k.key;
    }
    EXPECT_EQ(Overrides::choices("placementCost"),
              (std::vector<std::string>{"noc", "zero-load"}));
    EXPECT_TRUE(Overrides::choices("churn").empty());
}

TEST(OverridesTest, KnownKeysCoverConfigAndKnobs)
{
    const auto keys = Overrides::knownKeys();
    auto has = [&](const char *name) {
        for (const auto &[key, type] : keys) {
            if (key == name)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(has("meshWidth"));
    EXPECT_TRUE(has("epochAccesses"));
    EXPECT_TRUE(has("mixes"));
    EXPECT_TRUE(has("jsonDir"));
    EXPECT_TRUE(has("cacheBudget"));
}

} // anonymous namespace
} // namespace cdcs
