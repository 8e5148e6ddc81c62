/**
 * @file
 * Tests for the typed key=value override parser behind
 * `cdcs_studies --set` and the CDCS_* environment: good and bad keys,
 * type mismatches and bounds, last-one-wins ordering, the cross-key
 * bank-geometry check, the defaults < environment < configure <
 * `--set` precedence, and the model-name lists against the models
 * Platform builds.
 */

#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
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
    // Values past the field's C++ type are rejected, not wrapped.
    EXPECT_FALSE(ov.add("bankWays=4294967312", &err));
    EXPECT_NE(err.find("expected uint"), std::string::npos) << err;
    EXPECT_FALSE(ov.add("meshWidth=4294967297", &err));
    EXPECT_FALSE(ov.add("seed=18446744073709551616", &err));
    // Nothing half-applied: the config stays at defaults.
    SystemConfig cfg;
    ov.apply(cfg);
    EXPECT_EQ(cfg.meshWidth, SystemConfig{}.meshWidth);
}

TEST(OverridesTest, RejectsNonFiniteAndOutOfRangeDoubles)
{
    Overrides ov;
    std::string err;
    for (const char *kv :
         {"monitorSmoothing=+nan", "monitorSmoothing=nan",
          "skewAlpha=inf", "skewAlpha=+inf", "nocInjScale=-inf",
          "memLinesPerCycle=infinity", "allocHysteresis=1e999",
          "skewFraction=+0.5", "skewFraction= 0.5", "skewAlpha=1x"}) {
        EXPECT_FALSE(ov.add(kv, &err)) << kv;
        EXPECT_NE(err.find("expected double"), std::string::npos)
            << err;
    }
    // Each bound, inclusive or open, on both sides.
    for (const char *kv :
         {"allocGranuleLines=-5", "allocGranuleLines=0.5",
          "allocGranuleLines=1e10", "memLinesPerCycle=0",
          "memLinesPerCycle=2048", "farMemLinesPerCycle=-1",
          "monitorSmoothing=-0.1", "monitorSmoothing=1.5",
          "allocHysteresis=-1", "allocHysteresis=2", "nocMaxUtil=0",
          "nocMaxUtil=1", "nocInjScale=0", "nocInjScale=5000",
          "farMemRatio=1", "farMemRatio=-0.5", "skewAlpha=-1",
          "skewAlpha=17", "skewFraction=1.5", "skewDriftFraction=0"}) {
        EXPECT_FALSE(ov.add(kv, &err)) << kv;
        EXPECT_EQ(err.find("expected"), std::string::npos) << err;
    }
    EXPECT_FALSE(ov.add("allocGranuleLines=-5", &err));
    EXPECT_NE(err.find("(minimum 1)"), std::string::npos) << err;
    EXPECT_FALSE(ov.add("nocMaxUtil=1", &err));
    EXPECT_NE(err.find("(must be below 1)"), std::string::npos) << err;
    EXPECT_FALSE(ov.add("nocInjScale=0", &err));
    EXPECT_NE(err.find("(must be above 0)"), std::string::npos) << err;
    EXPECT_FALSE(ov.add("monitorSmoothing=1.5", &err));
    EXPECT_NE(err.find("(maximum 1)"), std::string::npos) << err;
    for (const char *kv :
         {"allocGranuleLines=1", "allocGranuleLines=4294967296",
          "memLinesPerCycle=1024", "monitorSmoothing=0",
          "monitorSmoothing=1", "allocHysteresis=0", "nocMaxUtil=0.99",
          "skewAlpha=16", "skewDriftFraction=1", "farMemRatio=0",
          "skewFraction=.5", "nocInjScale=1e2"}) {
        EXPECT_TRUE(ov.add(kv, &err)) << err;
    }
}

TEST(OverridesTest, EveryDoubleFieldHasFiniteBounds)
{
    const SystemConfig cfg;
    int doubles = 0;
    forEachField(cfg, [&doubles](const char *name, const auto &field,
                                 const FieldRule &rule) {
        using T = std::remove_cv_t<
            std::remove_reference_t<decltype(field)>>;
        if constexpr (std::is_floating_point_v<T>) {
            doubles++;
            EXPECT_TRUE(std::isfinite(rule.min)) << name;
            EXPECT_TRUE(std::isfinite(rule.max)) << name;
            EXPECT_LE(rule.min, field) << name;
            EXPECT_GE(rule.max, field) << name;
        }
    });
    EXPECT_EQ(doubles, 11);
}

TEST(OverridesTest, WorkersHaveAnUpperBound)
{
    // Parsing only: these values never reach a pool.
    Overrides ov;
    std::string err;
    EXPECT_TRUE(ov.add("workers=1024", &err)) << err;
    EXPECT_FALSE(ov.add("workers=1025", &err));
    EXPECT_NE(err.find("(maximum 1024)"), std::string::npos) << err;
    EXPECT_FALSE(ov.add("workers=4294967295", &err));
    EXPECT_FALSE(ov.add("workers=-1", &err));
    EXPECT_EQ(ov.knob("workers", 0), 1024u);
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

/** Sets environment variables for one scope, then restores them. */
class ScopedEnv
{
  public:
    explicit ScopedEnv(
        std::initializer_list<std::pair<const char *, const char *>> vars)
    {
        for (const auto &[name, value] : vars) {
            const char *old = std::getenv(name);
            saved.emplace_back(name, old != nullptr
                                         ? std::optional<std::string>(old)
                                         : std::nullopt);
            ::setenv(name, value, 1);
        }
    }

    ~ScopedEnv()
    {
        for (const auto &[name, old] : saved) {
            if (old)
                ::setenv(name, old->c_str(), 1);
            else
                ::unsetenv(name);
        }
    }

  private:
    std::vector<std::pair<const char *, std::optional<std::string>>>
        saved;
};

TEST(OverridesTest, KnobPrecedenceOverEnv)
{
    // Default < environment < --set, whatever order they arrive in.
    Overrides ov;
    EXPECT_EQ(ov.knob("mixes", 4), 4u);
    std::string err;
    ASSERT_TRUE(ov.add("mixes=9", &err));
    {
        const ScopedEnv env({{"CDCS_MIXES", "7"}, {"CDCS_APPS", "12"}});
        ASSERT_TRUE(ov.addEnvironment(&err)) << err;
    }
    EXPECT_EQ(ov.knob("mixes", 4), 9u);
    EXPECT_EQ(ov.knob("apps", 48), 12u);
    EXPECT_FALSE(ov.empty());

    Overrides env_only;
    {
        const ScopedEnv env({{"CDCS_MIXES", "7"}});
        ASSERT_TRUE(env_only.addEnvironment(&err)) << err;
    }
    EXPECT_EQ(env_only.knob("mixes", 4), 7u);
    // Environment entries are not `--set` entries (`list` takes none).
    EXPECT_TRUE(env_only.empty());
}

TEST(OverridesTest, StringKnobPrecedence)
{
    Overrides ov;
    std::string err;
    EXPECT_EQ(ov.strKnob("jsonDir", "dflt"), "dflt");
    {
        const ScopedEnv env({{"CDCS_JSON_DIR", "/from/env"},
                             {"CDCS_TRACE", ""}});
        ASSERT_TRUE(ov.addEnvironment(&err)) << err;
    }
    EXPECT_EQ(ov.strKnob("jsonDir", "dflt"), "/from/env");
    // An empty variable counts as unset.
    EXPECT_EQ(ov.strKnob("trace", "dflt"), "dflt");
    ASSERT_TRUE(ov.add("jsonDir=/from/set", &err));
    EXPECT_EQ(ov.strKnob("jsonDir", "dflt"), "/from/set");
}

TEST(OverridesTest, EnvironmentRanksBelowConfigureAndSet)
{
    // Defaults < environment < a study's configure < --set.
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("epochAccesses=999", &err)) << err;
    {
        const ScopedEnv env({{"CDCS_EPOCH_ACCESSES", "777"},
                             {"CDCS_EPOCHS", "5"},
                             {"CDCS_WARMUP", "2"},
                             {"CDCS_TRACE_BIN", "30000"}});
        ASSERT_TRUE(ov.addEnvironment(&err)) << err;
    }
    SystemConfig cfg;
    ov.apply(cfg, [](SystemConfig &c) { c.epochs = 12; });
    EXPECT_EQ(cfg.accessesPerThreadEpoch, 999u); // --set wins.
    EXPECT_EQ(cfg.epochs, 12);                   // configure wins.
    EXPECT_EQ(cfg.warmupEpochs, 2);              // env beats default.
    EXPECT_EQ(cfg.traceBinCycles, 30000u);
    EXPECT_EQ(cfg.meshWidth, SystemConfig{}.meshWidth);
}

TEST(OverridesTest, EnvironmentValuesAreCheckedLikeSet)
{
    // Parsing only: a bad CDCS_WORKERS never reaches a pool.
    const auto env_error = [](const char *var, const char *value) {
        const ScopedEnv env({{var, value}});
        Overrides ov;
        std::string err;
        EXPECT_FALSE(ov.addEnvironment(&err)) << var << "=" << value;
        EXPECT_EQ(err.rfind(std::string(var) + ": bad value", 0), 0u)
            << err;
        return err;
    };
    EXPECT_NE(env_error("CDCS_EPOCHS", "-1").find("(minimum 0)"),
              std::string::npos);
    EXPECT_NE(env_error("CDCS_MIXES", "abc").find("(expected uint)"),
              std::string::npos);
    EXPECT_NE(env_error("CDCS_WORKERS", "-1").find("(expected uint)"),
              std::string::npos);
    EXPECT_NE(env_error("CDCS_WORKERS", "5000").find("(maximum 1024)"),
              std::string::npos);
    env_error("CDCS_EPOCH_ACCESSES", " 5");
    env_error("CDCS_TIMING", "maybe");
    env_error("CDCS_TRACE_BIN", "0");
}

TEST(OverridesTest, UnknownEnvironmentVariablesAreRefused)
{
    // A CDCS_* variable that names no key is an error, like an
    // unknown --set key; an empty one counts as unset.
    for (const char *var : {"CDCS_CACHE_STATS", "CDCS_EPOCH"}) {
        const ScopedEnv env({{var, "0"}});
        Overrides ov;
        std::string err;
        EXPECT_FALSE(ov.addEnvironment(&err)) << var;
        EXPECT_EQ(err, std::string("unknown environment variable '") +
                           var + "'");
    }
    const ScopedEnv env({{"CDCS_CACHE", ""}});
    Overrides ov;
    std::string err;
    EXPECT_TRUE(ov.addEnvironment(&err)) << err;
}

TEST(OverridesTest, BoolKnobAcceptsWordForms)
{
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("timing=true", &err)) << err;
    EXPECT_EQ(ov.knob("timing", 0), 1u);
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
    EXPECT_TRUE(has("cacheDir"));
    // The result cache is always on: it has no switch, budget or
    // footer knob.
    EXPECT_FALSE(has("cache"));
    EXPECT_FALSE(has("cacheBudget"));
    EXPECT_FALSE(has("cacheStats"));
}

} // anonymous namespace
} // namespace cdcs
