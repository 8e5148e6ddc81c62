/**
 * @file
 * Tests for the declarative study API: the registry enumerates every
 * converted harness, runStudy resolves config/knob precedence, text
 * output is deterministic and byte-identical to a hand-written
 * legacy-style rendering of the same experiment, the JSON/CSV sinks
 * produce well-formed summaries, `stats=` metrics traces are a pure
 * function of the config, and the CLI keeps its exit statuses and its
 * result-cache contract (a warm store rerun prints the storeless
 * run's stdout and artifacts; merge checks the store it finds).
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "sim/study.hh"

namespace cdcs
{
namespace
{

/** Small knobs shared by the output tests. */
Overrides
tinyOverrides()
{
    Overrides ov;
    std::string err;
    // Keep the 8x8 mesh (64-app mixes need the cores) but shrink the
    // work. No addEnvironment(): runStudy sees no CDCS_* variable.
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

TEST(StudyTest, EnvironmentLosesToConfigureAndSet)
{
    // Defaults < CDCS_* environment < spec.configure < --set, on a
    // probe study that records its resolved config and runs nothing.
    SystemConfig seen;
    int seen_mixes = 0;
    StudySpec spec;
    spec.name = "precedence_probe";
    spec.defaultMixes = 4;
    spec.configure = [](SystemConfig &cfg) {
        cfg.epochs = 12;
        cfg.warmupEpochs = 3;
    };
    spec.run = [&](StudyContext &ctx) {
        seen = ctx.cfg;
        seen_mixes = ctx.mixes;
    };
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("warmup=1", &err)) << err;
    const char *const vars[][2] = {{"CDCS_EPOCHS", "5"},
                                   {"CDCS_WARMUP", "2"},
                                   {"CDCS_EPOCH_ACCESSES", "777"},
                                   {"CDCS_MIXES", "3"}};
    for (const auto &var : vars)
        ::setenv(var[0], var[1], 1);
    const bool read = ov.addEnvironment(&err);
    for (const auto &var : vars)
        ::unsetenv(var[0]);
    ASSERT_TRUE(read) << err;

    ExperimentRunner::Options opts;
    opts.workers = 1;
    ExperimentRunner runner(opts);
    StringReportSink sink;
    ASSERT_EQ(runStudy(spec, ov, runner, sink), 0);
    EXPECT_EQ(seen.epochs, 12);                   // configure > env.
    EXPECT_EQ(seen.warmupEpochs, 1);              // --set > configure.
    EXPECT_EQ(seen.accessesPerThreadEpoch, 777u); // env > default.
    EXPECT_EQ(seen_mixes, 3);                     // env > defaultMixes.
}

/** Run the studies CLI in-process; returns its exit status. */
int
runCli(std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return studiesCliMain(static_cast<int>(argv.size()), argv.data());
}

/** `<cmd> fig14` at tiny knobs (one worker), plus `extra` arguments. */
std::vector<std::string>
tinyFig14(const char *cmd, const std::vector<std::string> &extra)
{
    std::vector<std::string> args = {"cdcs_studies", cmd, "fig14"};
    for (const char *kv :
         {"epochAccesses=600", "epochs=2", "warmup=1", "mixes=1",
          "chunkAccesses=1000", "workers=1"}) {
        args.push_back("--set");
        args.push_back(kv);
    }
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
}

int
runTinyFig14(const std::vector<std::string> &extra)
{
    return runCli(tinyFig14("run", extra));
}

/** One CLI invocation's exit status, stdout and stderr. */
struct CliRun
{
    int status = -1;
    std::string out;
    std::string err;
};

CliRun
captureCli(std::vector<std::string> args)
{
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    CliRun run;
    run.status = runCli(std::move(args));
    run.err = ::testing::internal::GetCapturedStderr();
    run.out = ::testing::internal::GetCapturedStdout();
    return run;
}

/** A fresh (absent) path under the test temp dir. */
std::string
freshPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::filesystem::remove_all(path);
    return path;
}

/** File name -> contents of every file in `dir`. */
std::map<std::string, std::string>
filesIn(const std::string &dir)
{
    std::map<std::string, std::string> files;
    if (!std::filesystem::is_directory(dir))
        return files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path());
        files[entry.path().filename().string()] = std::string(
            std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>());
    }
    return files;
}

/** The number after `label` in `text` (0 when absent). */
unsigned long long
countAfter(const std::string &text, const std::string &label)
{
    const std::size_t at = text.find(label);
    return at == std::string::npos
        ? 0
        : std::strtoull(text.c_str() + at + label.size(), nullptr, 10);
}

/** A fresh regular file under the test temp dir. */
std::string
regularFile(const std::string &name)
{
    const std::string path = freshPath(name);
    std::ofstream(path) << "not a directory\n";
    return path;
}

TEST(StudyCliTest, BadEnvironmentValuesExitTwo)
{
    // The CLI reads CDCS_* through the --set checks and exits 2
    // before running anything; `--set workers=1` outranks
    // CDCS_WORKERS, so no pool is ever sized from these values.
    const char *const bad[][2] = {{"CDCS_EPOCHS", "-1"},
                                  {"CDCS_MIXES", "abc"},
                                  {"CDCS_WORKERS", "-1"},
                                  {"CDCS_WORKERS", "5000"}};
    for (const auto &var : bad) {
        ::setenv(var[0], var[1], 1);
        EXPECT_EQ(runCli({"cdcs_studies", "run", "fig14", "--set",
                          "workers=1"}),
                  2)
            << var[0] << "=" << var[1];
        ::unsetenv(var[0]);
    }
    // `list` rejects --set entries but ignores the environment.
    EXPECT_EQ(runCli({"cdcs_studies", "list", "--set", "epochs=1"}), 2);
    ::setenv("CDCS_EPOCHS", "-1", 1);
    EXPECT_EQ(runCli({"cdcs_studies", "list"}), 0);
    ::unsetenv("CDCS_EPOCHS");
}

TEST(StudyCliTest, MissingJsonDirIsCreated)
{
    const std::string parent = ::testing::TempDir() + "cli_json_new";
    std::filesystem::remove_all(parent);
    const std::string dir = parent + "/nested";
    EXPECT_EQ(runTinyFig14({"--set", "jsonDir=" + dir}), 0);
    std::size_t exported = 0;
    if (std::filesystem::is_directory(dir)) {
        for (const auto &entry :
             std::filesystem::directory_iterator(dir)) {
            exported += entry.path().extension() == ".json";
        }
    }
    EXPECT_GT(exported, 0u) << dir;
    std::filesystem::remove_all(parent);
}

TEST(StudyCliTest, JsonDirThatCannotBeADirectoryExitsNonZero)
{
    // Every artifact write fails; the run must say so in its status.
    const std::string file = regularFile("cli_json_file");
    EXPECT_NE(runTinyFig14({"--set", "jsonDir=" + file}), 0);
    EXPECT_NE(runTinyFig14({"--set", "jsonDir=" + file + "/sub"}), 0);
    std::filesystem::remove(file);
}

TEST(StudyCliTest, UnopenableStoreExitsTwoBeforeAnyRun)
{
    // A directory under a regular file cannot be made, even by root.
    const std::string file = regularFile("cli_store_file");
    const std::string store = "cacheDir=" + file + "/store";
    EXPECT_EQ(runCli({"cdcs_studies", "merge", "fig14", "--set",
                      "workers=1", "--set", store}),
              2);
    EXPECT_EQ(runCli({"cdcs_studies", "run", "fig14", "--shard", "0/2",
                      "--set", "workers=1", "--set", store}),
              2);
    std::filesystem::remove(file);
}

TEST(StudyCliTest, RemovedCacheKnobsAreUnknown)
{
    EXPECT_EQ(runTinyFig14({"--set", "cache=1"}), 2);
    EXPECT_EQ(runTinyFig14({"--set", "cacheStats=0"}), 2);
    EXPECT_EQ(runTinyFig14({"--set", "cacheBudget=8"}), 2);
    ::setenv("CDCS_CACHE_STATS", "0", 1);
    EXPECT_EQ(runTinyFig14({}), 2);
    ::unsetenv("CDCS_CACHE_STATS");
}

TEST(StudyCliTest, UnwritableTracePathExitsTwoBeforeAnyRun)
{
    const std::string file = regularFile("cli_trace_file");
    const std::string path = file + "/sub/trace.json";
    const CliRun run =
        captureCli(tinyFig14("run", {"--set", "trace=" + path}));
    EXPECT_EQ(run.status, 2);
    EXPECT_NE(run.err.find(path), std::string::npos) << run.err;
    EXPECT_EQ(run.out, ""); // Not even the study header.
    std::filesystem::remove(file);
}

/**
 * Fill a fresh store with `fill`, then rerun with `rerun` against it:
 * the rerun must print the storeless run's stdout and write exactly
 * its jsonDir files, `traces` of them metrics traces.
 */
void
expectStoreRerunMatchesStorelessRun(
    const std::string &tag, const std::vector<std::string> &fill,
    const std::vector<std::string> &rerun, std::size_t traces)
{
    const std::string store = freshPath(tag + "_store");
    // The text report names jsonDir, so both runs use the same one.
    const std::string json = freshPath(tag + "_json");
    std::vector<std::string> plain = rerun;
    plain.insert(plain.end(), {"--set", "jsonDir=" + json});
    const CliRun ref = captureCli(tinyFig14("run", plain));
    ASSERT_EQ(ref.status, 0) << ref.err;
    const auto want = filesIn(json);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(std::count_if(want.begin(), want.end(),
                            [](const auto &file) {
                                return file.first.rfind(
                                           "metrics_trace_", 0) == 0;
                            }),
              static_cast<std::ptrdiff_t>(traces));
    std::filesystem::remove_all(json);

    std::vector<std::string> filling = fill;
    filling.insert(filling.end(), {"--set", "cacheDir=" + store});
    ASSERT_EQ(captureCli(tinyFig14("run", filling)).status, 0);

    std::vector<std::string> warm = plain;
    warm.insert(warm.end(), {"--set", "cacheDir=" + store});
    const CliRun got = captureCli(tinyFig14("run", warm));
    EXPECT_EQ(got.status, 0) << got.err;
    EXPECT_NE(got.err.find("[store: "), std::string::npos) << got.err;
    EXPECT_EQ(got.out, ref.out);
    EXPECT_EQ(filesIn(json), want);
    std::filesystem::remove_all(json);
    std::filesystem::remove_all(store);
}

TEST(StudyCliTest, StoreFilledWithoutStatsServesNoStatsRun)
{
    // `stats` keys the cache: a stats=1 rerun must not be served the
    // trace-less results of a plain run, and exports every trace.
    expectStoreRerunMatchesStorelessRun("cli_store_plain", {},
                                        {"--set", "stats=1"}, 5);
}

TEST(StudyCliTest, StoreFilledUnderStatsServesNoPlainRun)
{
    // ...and a plain rerun is not served results carrying traces.
    expectStoreRerunMatchesStorelessRun("cli_store_stats",
                                        {"--set", "stats=1"}, {}, 0);
}

TEST(StudyCliTest, MergeChecksTheStoreItFinds)
{
    const CliRun ref = captureCli(tinyFig14("run", {}));
    ASSERT_EQ(ref.status, 0) << ref.err;
    const std::string store = freshPath("cli_merge_store");
    const auto in_store = [&store](const char *cmd,
                                   std::vector<std::string> extra) {
        extra.insert(extra.end(), {"--set", "cacheDir=" + store});
        return captureCli(tinyFig14(cmd, extra));
    };
    // The skipped count of a shard's `[store:` footer.
    const auto skipped = [](const CliRun &run) {
        return countAfter(run.err, "corrupt, ");
    };

    // One shard alone: merge simulates the other shard's cells, says
    // how many on stderr, and exits 1. Which cells a shard owns
    // depends on the build's hash salt, so use a shard that left some.
    CliRun first = in_store("run", {"--shard", "0/2"});
    if (skipped(first) == 0) {
        std::filesystem::remove_all(store);
        first = in_store("run", {"--shard", "1/2"});
    }
    ASSERT_EQ(first.status, 0) << first.err;
    ASSERT_GT(skipped(first), 0u) << first.err;
    const CliRun partial = in_store("merge", {});
    EXPECT_EQ(partial.status, 1);
    EXPECT_EQ(countAfter(partial.err, "merge: "), skipped(first))
        << partial.err;
    EXPECT_EQ(partial.out, ref.out);

    // Both shards: merge serves every cell from the store.
    std::filesystem::remove_all(store);
    ASSERT_EQ(in_store("run", {"--shard", "0/2"}).status, 0);
    ASSERT_EQ(in_store("run", {"--shard", "1/2"}).status, 0);
    const CliRun merged = in_store("merge", {});
    EXPECT_EQ(merged.status, 0) << merged.err;
    EXPECT_EQ(merged.out, ref.out);
    std::filesystem::remove_all(store);
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

TEST(StudyTest, CacheFootersGoToStderrNotTheReport)
{
    // A rerun on the same runner is served from the result cache and
    // prints the same report; the footer with its hits is on stderr.
    const Overrides ov = tinyOverrides();
    const StudySpec *spec = StudyRegistry::instance().find("fig14");
    ASSERT_NE(spec, nullptr);
    ExperimentRunner runner(runnerOptions(ov));
    StringReportSink cold;
    ::testing::internal::CaptureStderr();
    runStudy(*spec, ov, runner, cold);
    const std::string cold_err = ::testing::internal::GetCapturedStderr();
    StringReportSink warm;
    ::testing::internal::CaptureStderr();
    runStudy(*spec, ov, runner, warm);
    const std::string warm_err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(cold_err.find("[cache:"), std::string::npos) << cold_err;
    EXPECT_NE(warm_err.find("[cache:"), std::string::npos) << warm_err;
    EXPECT_EQ(warm.str(), cold.str());
}

TEST(StudyTest, RunnerOptionsAlwaysCacheResults)
{
    const Overrides none;
    EXPECT_TRUE(runnerOptions(none).cacheResults);
    EXPECT_TRUE(runnerOptions(none).cacheDir.empty());
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("cacheDir=store", &err)) << err;
    ASSERT_TRUE(ov.add("workers=3", &err)) << err;
    const ExperimentRunner::Options opts = runnerOptions(ov);
    EXPECT_TRUE(opts.cacheResults);
    EXPECT_EQ(opts.cacheDir, "store");
    EXPECT_EQ(opts.workers, 3u);
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
    std::map<std::string, std::string> traces;

  protected:
    void
    onArtifact(const std::string &name, std::string_view kind,
               std::string_view json, const std::string &path) override
    {
        (void)kind;
        (void)path;
        if (name.rfind("metrics_trace_", 0) == 0)
            traces[name] = std::string(json);
    }
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
