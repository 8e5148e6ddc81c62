/**
 * @file
 * Tests for the system simulator: scheme construction, conservation
 * invariants, and basic sanity of the timing/energy/traffic outputs.
 */

#include <gtest/gtest.h>

#include "obs/stat_registry.hh"
#include "sim/experiment.hh"

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
    cfg.bankLines = 2048;
    cfg.accessesPerThreadEpoch = 8000;
    cfg.epochs = 4;
    cfg.warmupEpochs = 1;
    return cfg;
}

TEST(SystemTest, MetricsTraceCountsTheFinalEpochsNocFlits)
{
    // Link flits are counted as each epoch closes. The last epoch
    // gets no contention refresh, but its flits still belong in its
    // row, so the measured rows add up to the run's link totals.
    SystemConfig cfg = smallConfig();
    cfg.nocModel = "contention";
    cfg.statsFilter = "noc.link_flits";
    StatRegistry::setEnabled(true);
    const RunResult res =
        runScheme(cfg, SchemeSpec::cdcs(), MixSpec::cpu(4, 11));
    StatRegistry::setEnabled(false);

    ASSERT_EQ(res.statNames.size(), 1u);
    ASSERT_EQ(res.epochTrace.size(),
              static_cast<std::size_t>(cfg.epochs));
    std::uint64_t measured = 0;
    for (int e = cfg.warmupEpochs; e < cfg.epochs; e++) {
        ASSERT_EQ(res.epochTrace[e].stats.size(), 1u);
        measured += res.epochTrace[e].stats[0];
    }
    std::uint64_t link_flits = 0;
    for (const NocLinkStat &link : res.nocLinks)
        link_flits += link.flits;
    EXPECT_GT(res.epochTrace.back().stats[0], 0u);
    EXPECT_GT(link_flits, 0u);
    EXPECT_EQ(measured, link_flits);
}

TEST(SystemTest, SnucaRunProducesSaneNumbers)
{
    const MixSpec mix = MixSpec::cpu(4, 11);
    const RunResult res =
        runScheme(smallConfig(), SchemeSpec::snuca(), mix);
    EXPECT_EQ(res.threadInstrs.size(), 4u);
    EXPECT_GT(res.totalInstrs, 0.0);
    EXPECT_GT(res.wallCycles, 0.0);
    EXPECT_GT(res.llcAccesses, 0u);
    EXPECT_GE(res.llcAccesses, res.llcHits);
    EXPECT_EQ(res.llcAccesses - res.llcHits - res.demandMoves,
              res.memAccesses);
    for (double ipc : res.threadIpc) {
        EXPECT_GT(ipc, 0.0);
        EXPECT_LT(ipc, 2.1); // 2-wide cores.
    }
}

TEST(SystemTest, HitsPlusMissesBalanceAcrossSchemes)
{
    const MixSpec mix = MixSpec::cpu(4, 13);
    for (const auto &spec :
         {SchemeSpec::snuca(), SchemeSpec::rnuca(),
          SchemeSpec::jigsaw(InitialSched::Random),
          SchemeSpec::cdcs()}) {
        const RunResult res = runScheme(smallConfig(), spec, mix);
        EXPECT_EQ(res.llcAccesses - res.llcHits - res.demandMoves,
                  res.memAccesses)
            << spec.name;
        EXPECT_GT(res.totalInstrs, 0.0) << spec.name;
    }
}

TEST(SystemTest, IdenticalStreamsAcrossSchemes)
{
    // The same MixSpec must issue identical work under any scheme:
    // total instructions are equal because epochs are fixed-work.
    const MixSpec mix = MixSpec::cpu(6, 17);
    const RunResult a =
        runScheme(smallConfig(), SchemeSpec::snuca(), mix);
    const RunResult b = runScheme(smallConfig(), SchemeSpec::cdcs(), mix);
    ASSERT_EQ(a.threadInstrs.size(), b.threadInstrs.size());
    for (std::size_t t = 0; t < a.threadInstrs.size(); t++)
        EXPECT_DOUBLE_EQ(a.threadInstrs[t], b.threadInstrs[t]);
}

TEST(SystemTest, RunsAreDeterministic)
{
    const MixSpec mix = MixSpec::cpu(4, 19);
    const RunResult a = runScheme(smallConfig(), SchemeSpec::cdcs(), mix);
    const RunResult b = runScheme(smallConfig(), SchemeSpec::cdcs(), mix);
    EXPECT_DOUBLE_EQ(a.totalInstrs, b.totalInstrs);
    EXPECT_DOUBLE_EQ(a.wallCycles, b.wallCycles);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
}

TEST(SystemTest, PartitionedSchemesReconfigure)
{
    const MixSpec mix = MixSpec::cpu(4, 23);
    const RunResult res = runScheme(smallConfig(), SchemeSpec::cdcs(),
                                    mix);
    EXPECT_GT(res.reconfigs, 0);
    EXPECT_GT(res.avgTimes.totalUs(), 0.0);
}

TEST(SystemTest, BulkInvalidationPausesShowUp)
{
    const MixSpec mix = MixSpec::cpu(4, 29);
    SchemeSpec jigsaw = SchemeSpec::jigsaw(InitialSched::Random);
    const RunResult res = runScheme(smallConfig(), jigsaw, mix);
    EXPECT_GT(res.pausedCycles, 0u);
    EXPECT_GT(res.bulkInvalidated, 0u);
}

TEST(SystemTest, DemandMovesHappenUnderCdcs)
{
    const MixSpec mix = MixSpec::cpu(6, 31);
    const RunResult res = runScheme(smallConfig(), SchemeSpec::cdcs(),
                                    mix);
    EXPECT_GT(res.demandMoves + res.bgInvalidated, 0u);
    EXPECT_EQ(res.pausedCycles, 0u);
}

TEST(SystemTest, EnergyBreakdownIsPositiveAndComplete)
{
    const MixSpec mix = MixSpec::cpu(4, 37);
    const RunResult res =
        runScheme(smallConfig(), SchemeSpec::snuca(), mix);
    EXPECT_GT(res.energy.staticE, 0.0);
    EXPECT_GT(res.energy.core, 0.0);
    EXPECT_GT(res.energy.net, 0.0);
    EXPECT_GT(res.energy.llc, 0.0);
    EXPECT_GT(res.energy.mem, 0.0);
    EXPECT_NEAR(res.energy.total(),
                res.energy.staticE + res.energy.core + res.energy.net +
                    res.energy.llc + res.energy.mem,
                1e-12);
}

TEST(SystemTest, TrafficRecordedPerClass)
{
    const MixSpec mix = MixSpec::cpu(4, 41);
    const RunResult res =
        runScheme(smallConfig(), SchemeSpec::snuca(), mix);
    EXPECT_GT(res.trafficFlitHops[0], 0u); // L2<->LLC.
    EXPECT_GT(res.trafficFlitHops[1], 0u); // LLC<->mem.
}

TEST(SystemTest, IpcTraceCoversRun)
{
    SystemConfig cfg = smallConfig();
    cfg.traceIpc = true;
    cfg.traceBinCycles = 5000;
    System system(cfg, SchemeSpec::cdcs(),
                  buildMix(MixSpec::cpu(4, 43)));
    const RunResult res = system.run();
    EXPECT_GT(res.ipcTrace.size(), 10u);
    double peak = 0.0;
    for (double ipc : res.ipcTrace)
        peak = std::max(peak, ipc);
    EXPECT_GT(peak, 0.0);
}

TEST(SystemTest, WeightedSpeedupOfBaselineIsOne)
{
    const MixSpec mix = MixSpec::cpu(4, 47);
    const RunResult res =
        runScheme(smallConfig(), SchemeSpec::snuca(), mix);
    EXPECT_DOUBLE_EQ(weightedSpeedup(res, res), 1.0);
}

TEST(SystemTest, UndercommittedMixLeavesCoresIdle)
{
    const MixSpec mix = MixSpec::cpu(2, 53);
    SystemConfig cfg = smallConfig();
    System system(cfg, SchemeSpec::cdcs(), buildMix(mix));
    EXPECT_EQ(system.threadPlacement().size(), 2u);
    const RunResult res = system.run();
    EXPECT_EQ(res.threadInstrs.size(), 2u);
}

} // anonymous namespace
} // namespace cdcs
