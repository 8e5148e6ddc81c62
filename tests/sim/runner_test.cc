/**
 * @file
 * Tests for the parallel ExperimentRunner: a sweep must produce
 * bit-identical results whether it runs serially or sharded across
 * the work-stealing pool (guards the per-run RNG-stream invariant),
 * baseline memoization must not change results, and the structured
 * SweepResult/JSON export must be well-formed.
 */

#include <atomic>

#include <gtest/gtest.h>

#include "sim/experiment_runner.hh"

namespace cdcs
{
namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.bankLines = 1024;
    cfg.accessesPerThreadEpoch = 3000;
    cfg.epochs = 3;
    cfg.warmupEpochs = 1;
    return cfg;
}

std::vector<SchemeSpec>
twoSchemes()
{
    return {SchemeSpec::snuca(), SchemeSpec::cdcs()};
}

ExperimentRunner::Options
runnerOpts(int workers, bool memoize_baseline)
{
    ExperimentRunner::Options opts;
    opts.workers = workers;
    opts.memoizeBaseline = memoize_baseline;
    return opts;
}

/**
 * `r` with its wall-clock reconfiguration step times cleared: two
 * separate simulations of one cell agree on every other field.
 */
RunResult
withoutWallClock(RunResult r)
{
    r.avgTimes = {};
    return r;
}

void
expectSameSweep(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.schemes.size(), b.schemes.size());
    ASSERT_EQ(a.mixes(), b.mixes());
    for (std::size_t s = 0; s < a.schemes.size(); s++) {
        for (int m = 0; m < a.mixes(); m++)
            EXPECT_EQ(a.ws[s][m], b.ws[s][m]);
        EXPECT_EQ(a.onChipLat[s], b.onChipLat[s]);
        EXPECT_EQ(a.offChipLat[s], b.offChipLat[s]);
        EXPECT_EQ(a.energyPerInstr[s], b.energyPerInstr[s]);
        for (int c = 0; c < 3; c++)
            EXPECT_EQ(a.trafficPerInstr[s][c],
                      b.trafficPerInstr[s][c]);
        for (int e = 0; e < 5; e++)
            EXPECT_EQ(a.energyParts[s][e], b.energyParts[s][e]);
        EXPECT_TRUE(withoutWallClock(a.firstRun[s]) ==
                    withoutWallClock(b.firstRun[s]));
    }
}

TEST(RunnerTest, SerialAndParallelSweepsAreBitIdentical)
{
    const SystemConfig cfg = smallConfig();
    const auto mix_of = [](int m) { return MixSpec::cpu(4, 500 + m); };

    ExperimentRunner serial(
        runnerOpts(/*workers=*/1, /*memoize=*/true));
    ExperimentRunner parallel(
        runnerOpts(/*workers=*/4, /*memoize=*/true));

    const SweepResult a = serial.sweep(cfg, twoSchemes(), 3, mix_of);
    const SweepResult b = parallel.sweep(cfg, twoSchemes(), 3, mix_of);
    expectSameSweep(a, b);
}

TEST(RunnerTest, RepeatedSweepsAreBitIdentical)
{
    const SystemConfig cfg = smallConfig();
    const auto mix_of = [](int m) { return MixSpec::cpu(4, 700 + m); };
    ExperimentRunner runner(
        runnerOpts(/*workers=*/4, /*memoize=*/false));
    const SweepResult a = runner.sweep(cfg, twoSchemes(), 2, mix_of);
    const SweepResult b = runner.sweep(cfg, twoSchemes(), 2, mix_of);
    expectSameSweep(a, b);
}

TEST(RunnerTest, MemoizationDoesNotChangeResults)
{
    const SystemConfig cfg = smallConfig();
    const auto mix_of = [](int m) { return MixSpec::cpu(4, 900 + m); };
    ExperimentRunner memo(
        runnerOpts(/*workers=*/2, /*memoize=*/true));
    ExperimentRunner fresh(
        runnerOpts(/*workers=*/2, /*memoize=*/false));
    // Run the memoizing runner twice: the second sweep serves every
    // S-NUCA baseline from the memo.
    memo.sweep(cfg, twoSchemes(), 2, mix_of);
    const SweepResult a = memo.sweep(cfg, twoSchemes(), 2, mix_of);
    const SweepResult b = fresh.sweep(cfg, twoSchemes(), 2, mix_of);
    expectSameSweep(a, b);
}

TEST(RunnerTest, RunMatchesDirectRunScheme)
{
    const SystemConfig cfg = smallConfig();
    const MixSpec mix = MixSpec::cpu(4, 42);
    ExperimentRunner runner;
    EXPECT_TRUE(
        withoutWallClock(runner.run(cfg, SchemeSpec::cdcs(), mix)) ==
        withoutWallClock(runScheme(cfg, SchemeSpec::cdcs(), mix)));
}

TEST(RunnerTest, RunSchemesKeepsSchemeOrder)
{
    const SystemConfig cfg = smallConfig();
    const MixSpec mix = MixSpec::cpu(4, 43);
    ExperimentRunner runner(
        runnerOpts(/*workers=*/4, /*memoize=*/true));
    const auto results = runner.runSchemes(cfg, twoSchemes(), mix);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(withoutWallClock(results[0]) ==
                withoutWallClock(runScheme(cfg, SchemeSpec::snuca(), mix)));
    EXPECT_TRUE(withoutWallClock(results[1]) ==
                withoutWallClock(runScheme(cfg, SchemeSpec::cdcs(), mix)));
}

TEST(RunnerTest, ForEachVisitsEveryIndexOnce)
{
    ExperimentRunner runner(
        runnerOpts(/*workers=*/4, /*memoize=*/true));
    std::vector<std::atomic<int>> hits(128);
    runner.forEach(128, [&](int i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    // Degenerate sizes are no-ops.
    runner.forEach(0, [&](int) { FAIL(); });
    runner.forEach(-3, [&](int) { FAIL(); });
}

TEST(RunnerTest, SweepHandlesZeroWorkRunsWithoutNan)
{
    // A zero-access run retires zero instructions. Aggregates must
    // stay finite (the seed divided by totalInstrs == 0 here).
    SystemConfig cfg = smallConfig();
    cfg.accessesPerThreadEpoch = 0;
    ExperimentRunner runner(
        runnerOpts(/*workers=*/1, /*memoize=*/true));
    // Weighted speedup is undefined with a zero-throughput baseline,
    // so sweep() cannot be used; check the per-run aggregation path.
    const RunResult r =
        runner.run(cfg, SchemeSpec::cdcs(), MixSpec::cpu(2, 7));
    EXPECT_EQ(r.totalInstrs, 0.0);
    EXPECT_EQ(r.offChipLatPerInstr(), 0.0);
    SweepResult sweep;
    sweep.schemes = twoSchemes();
    sweep.ws.assign(2, std::vector<double>{});
    sweep.onChipLat.assign(2, 0.0);
    sweep.offChipLat.assign(2, 0.0);
    sweep.trafficPerInstr.assign(2, {0.0, 0.0, 0.0});
    sweep.energyPerInstr.assign(2, 0.0);
    sweep.energyParts.assign(2, {0, 0, 0, 0, 0});
    EXPECT_EQ(sweep.mixes(), 0);
    const std::string json = sweep.toJson();
    EXPECT_NE(json.find("\"S-NUCA\""), std::string::npos);
}

TEST(RunnerTest, ResultCacheDoesNotChangeResults)
{
    const SystemConfig cfg = smallConfig();
    const auto mix_of = [](int m) { return MixSpec::cpu(4, 1300 + m); };
    ExperimentRunner::Options cached_opts;
    cached_opts.workers = 2;
    cached_opts.cacheResults = true;
    ExperimentRunner cached(cached_opts);
    ExperimentRunner fresh(
        runnerOpts(/*workers=*/2, /*memoize=*/false));
    // Second sweep is served entirely from the cache.
    cached.sweep(cfg, twoSchemes(), 2, mix_of);
    const SweepResult a = cached.sweep(cfg, twoSchemes(), 2, mix_of);
    const SweepResult b = fresh.sweep(cfg, twoSchemes(), 2, mix_of);
    expectSameSweep(a, b);

    const ExperimentRunner::CacheStats stats = cached.cacheStats();
    EXPECT_EQ(stats.misses, 4u);  // 2 schemes x 2 mixes, once.
    EXPECT_EQ(stats.hits, 4u);    // The whole second sweep.
    EXPECT_EQ(stats.entries, 4u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(RunnerTest, ResultCacheEvictsFifoAtBudget)
{
    const SystemConfig cfg = smallConfig();
    ExperimentRunner::Options opts;
    opts.workers = 1; // Serial: deterministic counter checks.
    opts.cacheResults = true;
    opts.cacheBudget = 2;
    ExperimentRunner runner(opts);

    const SchemeSpec cdcs_spec = SchemeSpec::cdcs();
    const MixSpec a = MixSpec::cpu(4, 1400);
    const MixSpec b = MixSpec::cpu(4, 1401);
    const MixSpec c = MixSpec::cpu(4, 1402);

    runner.run(cfg, cdcs_spec, a);
    runner.run(cfg, cdcs_spec, b);
    EXPECT_EQ(runner.cacheStats().entries, 2u);
    runner.run(cfg, cdcs_spec, c); // Evicts a (FIFO).
    EXPECT_EQ(runner.cacheStats().entries, 2u);
    EXPECT_EQ(runner.cacheStats().evictions, 1u);

    runner.run(cfg, cdcs_spec, c); // Still cached.
    EXPECT_EQ(runner.cacheStats().hits, 1u);
    runner.run(cfg, cdcs_spec, a); // Recompute; evicts b.
    const ExperimentRunner::CacheStats stats = runner.cacheStats();
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.entries, 2u);
}

TEST(RunnerTest, LongChurnSchedulesGetTheirOwnCacheCells)
{
    // Padding events at an epoch the run never reaches push the two
    // schedules' only difference, their last event, well past the
    // first 256 bytes of the cache key.
    std::string pad;
    while (pad.size() < 280)
        pad += "99:+1,";
    SystemConfig mild = smallConfig();
    mild.churn = pad + "2:-2";
    SystemConfig heavy = smallConfig();
    heavy.churn = pad + "2:-12";
    const SchemeSpec scheme = SchemeSpec::cdcs();
    const MixSpec mix = MixSpec::cpu(16, 1600);

    ExperimentRunner::Options opts;
    opts.workers = 1;
    opts.cacheResults = true;
    ExperimentRunner cached(opts);
    const RunResult a = cached.run(mild, scheme, mix);
    const RunResult b = cached.run(heavy, scheme, mix);
    const ExperimentRunner::CacheStats stats = cached.cacheStats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 2u);

    ExperimentRunner fresh(
        runnerOpts(/*workers=*/1, /*memoize=*/false));
    EXPECT_TRUE(withoutWallClock(a) ==
                withoutWallClock(fresh.run(mild, scheme, mix)));
    EXPECT_TRUE(withoutWallClock(b) ==
                withoutWallClock(fresh.run(heavy, scheme, mix)));
    EXPECT_NE(a.totalInstrs, b.totalInstrs);
}

TEST(RunnerTest, DefaultModeCountsOnlyBaselineMemo)
{
    const SystemConfig cfg = smallConfig();
    ExperimentRunner runner(
        runnerOpts(/*workers=*/1, /*memoize=*/true));
    const MixSpec mix = MixSpec::cpu(4, 1500);
    // Non-baseline schemes bypass the cache entirely.
    runner.run(cfg, SchemeSpec::cdcs(), mix);
    runner.run(cfg, SchemeSpec::cdcs(), mix);
    EXPECT_EQ(runner.cacheStats().hits, 0u);
    EXPECT_EQ(runner.cacheStats().misses, 0u);
    // S-NUCA baselines still memoize.
    runner.run(cfg, SchemeSpec::snuca(), mix);
    runner.run(cfg, SchemeSpec::snuca(), mix);
    EXPECT_EQ(runner.cacheStats().misses, 1u);
    EXPECT_EQ(runner.cacheStats().hits, 1u);
}

TEST(RunnerTest, JsonExportContainsPerMixAndAggregateData)
{
    const SystemConfig cfg = smallConfig();
    ExperimentRunner runner(
        runnerOpts(/*workers=*/2, /*memoize=*/true));
    const SweepResult sweep = runner.sweep(
        cfg, twoSchemes(), 2,
        [](int m) { return MixSpec::cpu(4, 1100 + m); });
    const std::string json = sweep.toJson();
    EXPECT_NE(json.find("\"mixes\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"S-NUCA\""), std::string::npos);
    EXPECT_NE(json.find("\"CDCS\""), std::string::npos);
    EXPECT_NE(json.find("\"gmeanWs\""), std::string::npos);
    EXPECT_NE(json.find("\"energyParts\""), std::string::npos);
    // S-NUCA's weighted speedup against itself is exactly 1.
    EXPECT_EQ(sweep.ws[0][0], 1.0);
    EXPECT_EQ(sweep.ws[0][1], 1.0);
}

} // anonymous namespace
} // namespace cdcs
