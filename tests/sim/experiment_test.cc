/**
 * @file
 * Tests for the experiment harness helpers: mix construction,
 * weighted speedup and the parallel sweep runner.
 */

#include <gtest/gtest.h>

#include "sim/experiment_runner.hh"

namespace cdcs
{
namespace
{

TEST(ExperimentTest, BuildMixKinds)
{
    const WorkloadMix cpu = buildMix(MixSpec::cpu(5, 1));
    EXPECT_EQ(cpu.numThreads(), 5);
    const WorkloadMix omp = buildMix(MixSpec::omp(2, 1));
    EXPECT_EQ(omp.numThreads(), 16);
    const WorkloadMix named =
        buildMix(MixSpec::named({"milc", "gcc"}, 1));
    EXPECT_EQ(named.numProcesses(), 2);
}

TEST(ExperimentTest, WeightedSpeedupIsMeanOfRatios)
{
    RunResult base, run;
    base.procThroughput = {1.0, 2.0};
    run.procThroughput = {2.0, 2.0};
    // (2/1 + 2/2) / 2 = 1.5.
    EXPECT_DOUBLE_EQ(weightedSpeedup(run, base), 1.5);
}

TEST(ExperimentTest, RunSchemesPreservesOrder)
{
    SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.accessesPerThreadEpoch = 2000;
    cfg.epochs = 2;
    cfg.warmupEpochs = 1;
    ExperimentRunner runner;
    const auto results = runner.runSchemes(
        cfg, {SchemeSpec::snuca(), SchemeSpec::rnuca()},
        MixSpec::cpu(2, 3));
    ASSERT_EQ(results.size(), 2u);
    // R-NUCA's local-bank mapping has much lower on-chip latency.
    EXPECT_GT(results[0].avgOnChipLatency(),
              results[1].avgOnChipLatency());
}

} // anonymous namespace
} // namespace cdcs
