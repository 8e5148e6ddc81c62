/**
 * @file
 * Tests for the declarative study API: the registry enumerates every
 * converted harness, runStudy resolves config/knob precedence, text
 * output is deterministic and byte-identical to a hand-written
 * legacy-style rendering of the same experiment, the JSON/CSV sinks
 * produce well-formed summaries, and `stats=` metrics traces are a
 * pure function of the config.
 */

#include <map>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "sim/study.hh"

namespace cdcs
{
namespace
{

/** Small, env-independent knobs shared by the output tests. */
Overrides
tinyOverrides()
{
    Overrides ov;
    std::string err;
    // Keep the 8x8 mesh (64-app mixes need the cores) but shrink
    // the work; pin every env-controlled knob so the test is
    // hermetic under any CDCS_* environment.
    for (const char *kv :
         {"epochAccesses=600", "epochs=2", "warmup=1", "mixes=1",
          "chunkAccesses=1000", "seed=42"}) {
        if (!ov.add(kv, &err))
            ADD_FAILURE() << err;
    }
    return ov;
}

std::string
runFig11(const Overrides &ov)
{
    const StudySpec *spec = StudyRegistry::instance().find("fig11");
    if (spec == nullptr)
        return "";
    ExperimentRunner runner;
    StringReportSink sink;
    runStudy(*spec, ov, runner, sink);
    return sink.str();
}

TEST(StudyRegistryTest, EnumeratesEveryConvertedHarness)
{
    const auto all = StudyRegistry::instance().all();
    ASSERT_GE(all.size(), 20u);
    const char *expected[] = {
        "fig2",          "fig5",
        "fig11",         "fig12",
        "fig13",         "fig14",
        "fig15",         "fig16",
        "fig17",         "fig18",
        "table1",        "table3",
        "ablation_numa", "ablation_stability",
        "vic_bankgrain", "vic_monitors",
        "vic_placers",   "noc_sensitivity",
        "noc_heatmap",   "placement_contention",
    };
    for (const char *name : expected) {
        EXPECT_NE(StudyRegistry::instance().find(name), nullptr)
            << name;
    }
    EXPECT_EQ(StudyRegistry::instance().find("no_such_study"),
              nullptr);
    // all() is name-sorted.
    for (std::size_t i = 1; i < all.size(); i++)
        EXPECT_LT(all[i - 1]->name, all[i]->name);
}

TEST(StudyRegistryTest, SpecsCarryCategoryAndLineup)
{
    const StudySpec *fig11 = StudyRegistry::instance().find("fig11");
    ASSERT_NE(fig11, nullptr);
    EXPECT_EQ(fig11->category, "figure");
    ASSERT_EQ(fig11->lineup.size(), 5u);
    EXPECT_EQ(fig11->lineup.front(), "snuca");
    EXPECT_EQ(fig11->lineup.back(), "cdcs");
    // Every lineup name of every study resolves in the registry.
    for (const StudySpec *spec : StudyRegistry::instance().all()) {
        for (const std::string &name : spec->lineup) {
            EXPECT_TRUE(SchemeRegistry::instance().contains(name))
                << spec->name << ": " << name;
        }
    }
    const StudySpec *table1 =
        StudyRegistry::instance().find("table1");
    ASSERT_NE(table1, nullptr);
    EXPECT_EQ(table1->category, "table");
}

TEST(StudyTest, Fig11MatchesLegacyHarnessByteForByte)
{
    // The legacy bench_fig11_64app main(), transcribed: same
    // seeds, lineup, section structure and printf formats.
    Overrides ov = tinyOverrides();
    SystemConfig cfg;
    ov.apply(cfg);
    const int mixes = 1;

    ExperimentRunner runner;
    StringReportSink legacy;
    writeStudyHeader(legacy, "Fig. 11 (a-e)",
                     "50 mixes of 64 apps in the paper", cfg, mixes);
    const SweepResult sweep = runner.sweep(
        cfg,
        {SchemeSpec::snuca(), SchemeSpec::rnuca(),
         SchemeSpec::jigsaw(InitialSched::Clustered),
         SchemeSpec::jigsaw(InitialSched::Random),
         SchemeSpec::cdcs()},
        mixes, [](int m) { return MixSpec::cpu(64, 1000 + m); });
    legacy.printf("-- Fig. 11a: weighted speedup inverse CDF --\n");
    writeInverseCdf(legacy, sweep);
    legacy.printf("\n");
    writeWsSummary(legacy, sweep);
    legacy.printf("\n-- Fig. 11b-e: latency, traffic and energy "
                  "breakdowns (normalized to CDCS) --\n");
    writeBreakdowns(legacy, sweep);

    const std::string study_out = runFig11(ov);
    ASSERT_FALSE(study_out.empty());
    EXPECT_EQ(study_out, legacy.str());
}

TEST(StudyTest, OutputIsDeterministicAcrossRuns)
{
    const Overrides ov = tinyOverrides();
    const std::string a = runFig11(ov);
    const std::string b = runFig11(ov);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(StudyTest, OverridesReachTheConfigAndHeader)
{
    Overrides ov = tinyOverrides();
    std::string err;
    ASSERT_TRUE(ov.add("meshWidth=4", &err)) << err;
    ASSERT_TRUE(ov.add("meshHeight=4", &err)) << err;
    const StudySpec *spec = StudyRegistry::instance().find("fig14");
    ASSERT_NE(spec, nullptr);
    ExperimentRunner runner;
    StringReportSink sink;
    ASSERT_EQ(runStudy(*spec, ov, runner, sink), 0);
    EXPECT_NE(sink.str().find("mesh 4x4"), std::string::npos);
    EXPECT_NE(sink.str().find("600 accesses/thread/epoch"),
              std::string::npos);
}

TEST(StudyTest, ConfigureHookAppliesBeforeOverrides)
{
    // table1 configures a 6x6 mesh; a --set must still win (7x7
    // keeps room for the case study's 36 threads).
    Overrides ov = tinyOverrides();
    std::string err;
    ASSERT_TRUE(ov.add("meshWidth=7", &err)) << err;
    ASSERT_TRUE(ov.add("meshHeight=7", &err)) << err;
    const StudySpec *spec = StudyRegistry::instance().find("table1");
    ASSERT_NE(spec, nullptr);
    ExperimentRunner runner;
    StringReportSink sink;
    ASSERT_EQ(runStudy(*spec, ov, runner, sink), 0);
    EXPECT_NE(sink.str().find("mesh 7x7"), std::string::npos);
}

TEST(StudyTest, JsonSinkProducesOneDocument)
{
    const Overrides ov = tinyOverrides();
    const StudySpec *spec = StudyRegistry::instance().find("fig14");
    ASSERT_NE(spec, nullptr);
    ExperimentRunner runner;

    std::FILE *stream = std::tmpfile();
    ASSERT_NE(stream, nullptr);
    JsonReportSink sink(stream);
    ASSERT_EQ(runStudy(*spec, ov, runner, sink), 0);
    sink.finish();
    std::rewind(stream);
    std::string doc(1 << 20, '\0');
    doc.resize(std::fread(doc.data(), 1, doc.size(), stream));
    std::fclose(stream);

    EXPECT_NE(doc.find("\"name\": \"fig14\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\": \"sweep\""), std::string::npos);
    EXPECT_NE(doc.find("\"S-NUCA\""), std::string::npos);
    int depth = 0;
    for (char c : doc) {
        depth += (c == '{' || c == '[');
        depth -= (c == '}' || c == ']');
    }
    EXPECT_EQ(depth, 0) << "unbalanced JSON document";
}

TEST(StudyTest, CsvSinkProducesSummaryRows)
{
    const Overrides ov = tinyOverrides();
    const StudySpec *spec = StudyRegistry::instance().find("fig14");
    ASSERT_NE(spec, nullptr);
    ExperimentRunner runner;

    std::FILE *stream = std::tmpfile();
    ASSERT_NE(stream, nullptr);
    CsvReportSink sink(stream);
    ASSERT_EQ(runStudy(*spec, ov, runner, sink), 0);
    sink.finish();
    std::rewind(stream);
    std::string csv(1 << 16, '\0');
    csv.resize(std::fread(csv.data(), 1, csv.size(), stream));
    std::fclose(stream);

    EXPECT_EQ(csv.rfind("study,sweep,scheme,", 0), 0u);
    EXPECT_NE(csv.find("fig14,fig14_4app,S-NUCA,"),
              std::string::npos);
    EXPECT_NE(csv.find("fig14,fig14_4app,CDCS,"), std::string::npos);
}

TEST(StudyTest, CacheFooterAppearsOnlyWhenHitsOccur)
{
    const Overrides ov = tinyOverrides();
    const StudySpec *spec = StudyRegistry::instance().find("fig14");
    ASSERT_NE(spec, nullptr);
    {
        // Cache off: no footer ever.
        ExperimentRunner runner;
        StringReportSink sink;
        runStudy(*spec, ov, runner, sink);
        EXPECT_EQ(sink.str().find("[cache:"), std::string::npos);
    }
    {
        // Cache on, all misses: still no footer (this is what keeps
        // the repeated-lineup cache default byte-identical), but the
        // second identical study on the same runner hits and reports.
        ExperimentRunner::Options opts;
        opts.cacheResults = true;
        ExperimentRunner runner(opts);
        StringReportSink first;
        runStudy(*spec, ov, runner, first);
        EXPECT_EQ(first.str().find("[cache:"), std::string::npos);
        StringReportSink second;
        runStudy(*spec, ov, runner, second);
        EXPECT_NE(second.str().find("[cache:"), std::string::npos);
    }
}

TEST(StudyTest, RepeatedLineupStudiesEnableTheCacheByDefault)
{
    // Multi-sweep studies declare the repeated lineup...
    for (const char *name :
         {"fig12", "fig13", "fig18", "ablation_stability",
          "vic_bankgrain", "noc_sensitivity", "noc_heatmap",
          "placement_contention", "mem_placement"}) {
        const StudySpec *spec =
            StudyRegistry::instance().find(name);
        ASSERT_NE(spec, nullptr) << name;
        EXPECT_TRUE(spec->repeatedLineup) << name;
    }
    // ...single-sweep studies don't.
    for (const char *name : {"fig11", "fig14", "table1"}) {
        const StudySpec *spec =
            StudyRegistry::instance().find(name);
        ASSERT_NE(spec, nullptr) << name;
        EXPECT_FALSE(spec->repeatedLineup) << name;
    }

    // runnerOptions: off by default, on for repeated-lineup batches,
    // and an explicit --set cache=0 still wins.
    const Overrides none;
    EXPECT_FALSE(runnerOptions(none).cacheResults);
    EXPECT_TRUE(runnerOptions(none, true).cacheResults);
    Overrides off;
    std::string err;
    ASSERT_TRUE(off.add("cache=0", &err)) << err;
    EXPECT_FALSE(runnerOptions(off, true).cacheResults);
}

std::string
runStudyWithWorkers(const char *name, const Overrides &ov,
                    unsigned workers)
{
    const StudySpec *spec = StudyRegistry::instance().find(name);
    if (spec == nullptr)
        return "";
    ExperimentRunner::Options opts;
    opts.workers = workers;
    ExperimentRunner runner(opts);
    StringReportSink sink;
    runStudy(*spec, ov, runner, sink);
    return sink.str();
}

TEST(NocStudyTest, DefaultOutputByteIdenticalToExplicitZeroLoad)
{
    // The default network model is the zero-load adapter; naming it
    // explicitly must not change a study's bytes (the in-process
    // version of the CI diff).
    const std::string default_out = runFig11(tinyOverrides());
    Overrides explicit_ov = tinyOverrides();
    std::string err;
    ASSERT_TRUE(explicit_ov.add("noc=zero-load", &err)) << err;
    const std::string explicit_out = runFig11(explicit_ov);
    ASSERT_FALSE(default_out.empty());
    EXPECT_EQ(default_out, explicit_out);
}

TEST(NocStudyTest, SensitivityDeterministicAcrossWorkerCounts)
{
    const Overrides ov = tinyOverrides();
    const std::string serial =
        runStudyWithWorkers("noc_sensitivity", ov, 1);
    const std::string parallel =
        runStudyWithWorkers("noc_sensitivity", ov, 4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(NocStudyTest, HeatmapDeterministicAcrossWorkerCounts)
{
    const Overrides ov = tinyOverrides();
    const std::string serial =
        runStudyWithWorkers("noc_heatmap", ov, 1);
    const std::string parallel =
        runStudyWithWorkers("noc_heatmap", ov, 4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(NocStudyTest, DefaultOutputByteIdenticalToZeroLoadPlacementCost)
{
    // Under the default zero-load network model the contention-aware
    // placement cost oracle carries no waits, so pinning the flat hop
    // arithmetic explicitly must not change a study's bytes (the
    // in-process version of the CI oracle-refactor diff).
    const std::string default_out = runFig11(tinyOverrides());
    Overrides pinned_ov = tinyOverrides();
    std::string err;
    ASSERT_TRUE(pinned_ov.add("placementCost=zero-load", &err)) << err;
    const std::string pinned_out = runFig11(pinned_ov);
    ASSERT_FALSE(default_out.empty());
    EXPECT_EQ(default_out, pinned_out);
}

TEST(NocStudyTest, PlacementContentionDeterministicAcrossWorkerCounts)
{
    const Overrides ov = tinyOverrides();
    const std::string serial =
        runStudyWithWorkers("placement_contention", ov, 1);
    const std::string parallel =
        runStudyWithWorkers("placement_contention", ov, 4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(NocStudyTest, ContentionCostPlacementRelievesLoadedLinks)
{
    // The placement_contention acceptance shape: at a high injection
    // scale, pricing placement on the measured waits must not leave
    // flits waiting longer than the flat hop oracle does — the
    // runtime steers VCs and threads off the saturated routes.
    SystemConfig cfg;
    cfg.accessesPerThreadEpoch = 8000;
    cfg.epochs = 6;
    cfg.warmupEpochs = 2;
    cfg.nocModel = "contention";
    cfg.nocInjScale = 8.0;
    const SchemeSpec cdcs_scheme = schemesByName({"cdcs"})[0];
    const MixSpec mix = MixSpec::cpu(64, 11000);

    const auto mean_wait = [](const RunResult &run) {
        double wait_flits = 0.0, flits = 0.0;
        for (const NocLinkStat &link : run.nocLinks) {
            wait_flits +=
                link.waitCycles * static_cast<double>(link.flits);
            flits += static_cast<double>(link.flits);
        }
        return flits > 0.0 ? wait_flits / flits : 0.0;
    };

    ExperimentRunner runner;
    SystemConfig pinned = cfg;
    pinned.placementCost = "zero-load";
    const double pinned_wait =
        mean_wait(runner.run(pinned, cdcs_scheme, mix));
    SystemConfig adaptive = cfg;
    adaptive.placementCost = "noc";
    const double adaptive_wait =
        mean_wait(runner.run(adaptive, cdcs_scheme, mix));
    EXPECT_GT(pinned_wait, 0.0);
    EXPECT_LE(adaptive_wait, pinned_wait * 1.005);
}

TEST(NocStudyTest, ContentionLatencyMonotoneInInjectionScale)
{
    // The noc_sensitivity acceptance shape: per-scheme average
    // on-chip latency is non-decreasing in the injection-rate scale
    // (zero-load bounds the chain from below). Placement is pinned to
    // the flat hop oracle so the chain isolates the *network model's*
    // monotonicity: with the default contention-aware placement cost
    // the runtime steers traffic off loaded links and can beat the
    // zero-load-placement latency, which is the adaptation the
    // placement_contention study (and its tests) measure. Uses the
    // study's lineup and mix seed at an epoch length long enough for
    // the closed-loop dynamics (walker advance, memory queueing) to
    // settle.
    SystemConfig cfg;
    cfg.accessesPerThreadEpoch = 4000;
    cfg.epochs = 4;
    cfg.warmupEpochs = 2;
    cfg.placementCost = "zero-load";
    const std::vector<SchemeSpec> schemes =
        schemesByName({"snuca", "rnuca", "jigsaw-r", "cdcs"});
    const auto mix_of = [](int) { return MixSpec::cpu(64, 11000); };

    ExperimentRunner runner;
    SystemConfig zero_load = cfg;
    zero_load.nocModel = "zero-load";
    std::vector<double> prev =
        runner.sweep(zero_load, schemes, 1, mix_of).onChipLat;
    for (double scale : {1.0, 4.0, 8.0}) {
        SystemConfig contended = cfg;
        contended.nocModel = "contention";
        contended.nocInjScale = scale;
        const std::vector<double> lat =
            runner.sweep(contended, schemes, 1, mix_of).onChipLat;
        for (std::size_t s = 0; s < schemes.size(); s++) {
            EXPECT_GE(lat[s] + 1e-9, prev[s])
                << schemes[s].name << " at x" << scale;
        }
        prev = lat;
    }
}

/** Text capture that also keeps every exported metrics trace. */
class MetricsTraceSink : public StringReportSink
{
  public:
    void
    artifact(const std::string &name, const std::string &json) override
    {
        if (name.rfind("metrics_trace_", 0) == 0)
            traces[name] = json;
    }

    std::map<std::string, std::string> traces;
};

std::map<std::string, std::string>
metricsTraces(const char *filter, unsigned workers)
{
    Overrides ov = tinyOverrides();
    std::string err;
    if (!ov.add(std::string("stats=") + filter, &err))
        ADD_FAILURE() << err;
    const StudySpec *spec =
        StudyRegistry::instance().find("noc_sensitivity");
    if (spec == nullptr)
        return {};
    ExperimentRunner::Options opts;
    opts.workers = workers;
    ExperimentRunner runner(opts);
    MetricsTraceSink sink;
    runStudy(*spec, ov, runner, sink);
    return sink.traces;
}

TEST(ObsStudyTest, StatsTracesArePureFunctionsOfTheConfig)
{
    // stats=1 samples every per-run counter but no wall-clock timer,
    // so a contention study's traces cannot depend on the host or on
    // how the sweep was spread over workers.
    const auto serial = metricsTraces("1", 1);
    const auto parallel = metricsTraces("1", 4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    for (const auto &[name, json] : serial) {
        EXPECT_NE(json.find("\"noc.link_flits\""), std::string::npos)
            << name;
        EXPECT_EQ(json.find("\"time."), std::string::npos) << name;
    }

    // The timers are there for the asking.
    const auto timed = metricsTraces("time", 1);
    ASSERT_EQ(timed.size(), serial.size());
    for (const auto &[name, json] : timed) {
        EXPECT_NE(json.find("\"time.access_ns\""), std::string::npos)
            << name;
    }
}

} // anonymous namespace
} // namespace cdcs
