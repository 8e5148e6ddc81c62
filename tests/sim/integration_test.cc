/**
 * @file
 * End-to-end integration tests: the qualitative results the paper's
 * evaluation rests on must emerge from full simulations — CDCS/Jigsaw
 * beating S-NUCA on capacity-sensitive mixes, R-NUCA's low on-chip
 * latency, cliff apps fitting under partitioned NUCA, and move-scheme
 * orderings.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "sim/experiment_runner.hh"

namespace cdcs
{
namespace
{

SystemConfig
integrationConfig()
{
    // Epochs must be long enough relative to the largest working-set
    // sweep (omnetpp revisits its 2.5 MB scan every ~46 K accesses)
    // and numerous enough for the partitioned runtimes to converge
    // past the bootstrap transient (see EXPERIMENTS.md).
    SystemConfig cfg;
    cfg.meshWidth = 6;
    cfg.meshHeight = 6;
    cfg.accessesPerThreadEpoch = 25000;
    cfg.epochs = 8;
    cfg.warmupEpochs = 4;
    return cfg;
}

TEST(IntegrationTest, PartitionedNucaBeatsSnucaOnCliffMix)
{
    // omnetpp's 2.5 MB working set cannot live in one 512 KB bank
    // (R-NUCA) nor survive S-NUCA interleaving with streaming
    // neighbors, but Jigsaw/CDCS give it a multi-bank VC. Enough
    // instances are used that S-NUCA's shared LLC actually thrashes.
    const MixSpec mix = MixSpec::named(
        {"omnetpp", "omnetpp", "omnetpp", "omnetpp", "milc", "milc",
         "milc", "milc", "milc", "milc", "milc", "milc"},
        7);
    const SystemConfig cfg = integrationConfig();
    ExperimentRunner runner;
    const auto results = runner.runSchemes(
        cfg,
        {SchemeSpec::snuca(), SchemeSpec::cdcs()},
        mix);
    const double ws = weightedSpeedup(results[1], results[0]);
    EXPECT_GT(ws, 1.1);
}

TEST(IntegrationTest, CdcsReducesOnChipLatencyVsSnuca)
{
    const MixSpec mix = MixSpec::cpu(12, 61);
    const SystemConfig cfg = integrationConfig();
    ExperimentRunner runner;
    const auto results = runner.runSchemes(
        cfg, {SchemeSpec::snuca(), SchemeSpec::cdcs()}, mix);
    // Fig. 11b: S-NUCA's LLC net latency is many times CDCS's.
    EXPECT_GT(results[0].avgOnChipLatency(),
              2.0 * results[1].avgOnChipLatency());
}

TEST(IntegrationTest, RnucaHasLowOnChipLatency)
{
    // R-NUCA maps private data to the local bank: near-zero network
    // latency on LLC accesses (Fig. 11b), but poor capacity use.
    const MixSpec mix = MixSpec::cpu(12, 67);
    const SystemConfig cfg = integrationConfig();
    ExperimentRunner runner;
    const auto results = runner.runSchemes(
        cfg, {SchemeSpec::snuca(), SchemeSpec::rnuca()}, mix);
    EXPECT_LT(results[1].avgOnChipLatency(),
              results[0].avgOnChipLatency() * 0.5);
}

TEST(IntegrationTest, SnucaGeneratesMostTraffic)
{
    const MixSpec mix = MixSpec::cpu(12, 71);
    const SystemConfig cfg = integrationConfig();
    ExperimentRunner runner;
    const auto results = runner.runSchemes(
        cfg, {SchemeSpec::snuca(), SchemeSpec::cdcs()}, mix);
    const auto total = [](const RunResult &r) {
        return r.trafficFlitHops[0] + r.trafficFlitHops[1] +
            r.trafficFlitHops[2];
    };
    EXPECT_GT(total(results[0]), total(results[1]));
}

TEST(IntegrationTest, CdcsEnergyBelowSnuca)
{
    // Energy gains require capacity contention (Fig. 11e's mixes are
    // 64 apps on 64 cores); use a contended mix here too.
    const MixSpec mix = MixSpec::cpu(24, 73);
    const SystemConfig cfg = integrationConfig();
    ExperimentRunner runner;
    const auto results = runner.runSchemes(
        cfg, {SchemeSpec::snuca(), SchemeSpec::cdcs()}, mix);
    const double snuca_epi =
        results[0].energy.total() / results[0].totalInstrs;
    const double cdcs_epi =
        results[1].energy.total() / results[1].totalInstrs;
    EXPECT_LT(cdcs_epi, snuca_epi);
}

TEST(IntegrationTest, MoveSchemeOrdering)
{
    // Instant (ideal) >= demand+background >= bulk in weighted
    // speedup, within noise (Fig. 18's ordering).
    const MixSpec mix = MixSpec::cpu(10, 79);
    SystemConfig cfg = integrationConfig();
    cfg.accessesPerThreadEpoch = 10000; // Frequent reconfigs.

    SchemeSpec instant = SchemeSpec::cdcs();
    instant.moves = MoveScheme::Instant;
    SchemeSpec background = SchemeSpec::cdcs();
    background.moves = MoveScheme::DemandBackground;
    SchemeSpec bulk = SchemeSpec::cdcs();
    bulk.moves = MoveScheme::BulkInvalidate;

    ExperimentRunner runner;
    const auto results = runner.runSchemes(
        cfg, {SchemeSpec::snuca(), instant, background, bulk}, mix);
    const double ws_instant = weightedSpeedup(results[1], results[0]);
    const double ws_bg = weightedSpeedup(results[2], results[0]);
    const double ws_bulk = weightedSpeedup(results[3], results[0]);
    EXPECT_GT(ws_instant, ws_bulk * 0.98);
    EXPECT_GT(ws_bg, ws_bulk * 0.97);
}

TEST(IntegrationTest, BackgroundMovesPerformLikeInvalidations)
{
    // Sec. IV-H: "background moves and background invalidations
    // performed similarly -- most of the benefit comes from not
    // pausing cores".
    const MixSpec mix = MixSpec::cpu(10, 101);
    SystemConfig cfg = integrationConfig();
    SchemeSpec moves = SchemeSpec::cdcs();
    moves.moves = MoveScheme::BackgroundMoves;
    ExperimentRunner runner;
    const auto results = runner.runSchemes(
        cfg, {SchemeSpec::snuca(), SchemeSpec::cdcs(), moves}, mix);
    const double ws_inv = weightedSpeedup(results[1], results[0]);
    const double ws_mov = weightedSpeedup(results[2], results[0]);
    // Moves preserve strictly more data than invalidations, so they
    // can only help; at the paper's 25 ms epochs the difference is
    // negligible, at our scaled epochs preserved cold data is worth a
    // few percent (see EXPERIMENTS.md).
    EXPECT_GE(ws_mov, ws_inv * 0.98);
    EXPECT_LE(ws_mov, ws_inv * 1.15);
}

TEST(IntegrationTest, MultithreadedSharedHeavyPrefersClustering)
{
    // ilbdc is shared-heavy: clustering its threads around the
    // shared VC must not lose to spreading them.
    const MixSpec mix = MixSpec::named({"ilbdc", "mgrid"}, 83);
    SystemConfig cfg = integrationConfig();
    ExperimentRunner runner;
    const auto results = runner.runSchemes(
        cfg,
        {SchemeSpec::snuca(), SchemeSpec::jigsaw(InitialSched::Random),
         SchemeSpec::jigsaw(InitialSched::Clustered),
         SchemeSpec::cdcs()},
        mix);
    const double ws_cdcs = weightedSpeedup(results[3], results[0]);
    const double ws_jr = weightedSpeedup(results[1], results[0]);
    const double ws_jc = weightedSpeedup(results[2], results[0]);
    // CDCS must be competitive with the best fixed policy.
    EXPECT_GT(ws_cdcs, std::min(ws_jr, ws_jc) * 0.95);
}

TEST(IntegrationTest, FactorVariantsAreOrderedSanely)
{
    // Fig. 12: every CDCS technique added to Jigsaw+R should not hurt
    // materially, and +LTD should be best-or-close.
    const MixSpec mix = MixSpec::cpu(10, 89);
    const SystemConfig cfg = integrationConfig();
    ExperimentRunner runner;
    const auto results = runner.runSchemes(
        cfg,
        {SchemeSpec::snuca(), SchemeSpec::factor(false, false, false),
         SchemeSpec::factor(true, true, true)},
        mix);
    const double ws_jigsaw = weightedSpeedup(results[1], results[0]);
    const double ws_ltd = weightedSpeedup(results[2], results[0]);
    EXPECT_GT(ws_ltd, ws_jigsaw * 0.97);
}

TEST(IntegrationTest, BankGranularCdcsKeepsMostOfTheGain)
{
    // Sec. VI-C: with 4 smaller banks per tile and whole-bank
    // allocation, CDCS still beats S-NUCA on capacity-contended
    // mixes, but by less than fine-grained partitioning (the paper
    // reports 36% vs 46% gmean).
    const MixSpec mix = MixSpec::named(
        {"omnetpp", "omnetpp", "omnetpp", "omnetpp", "milc", "milc",
         "milc", "milc", "milc", "milc", "milc", "milc"},
        7);
    SystemConfig fine_cfg = integrationConfig();
    SystemConfig bank_cfg = fine_cfg;
    bank_cfg.banksPerTile = 4;
    bank_cfg.bankLines = 2048;
    bank_cfg.allocGranuleLines = 2048;
    SchemeSpec bank_spec = SchemeSpec::cdcs();
    bank_spec.cdcsOpts.placeGranule = 2048.0;
    bank_spec.cdcsOpts.minAllocLines = 2048.0;

    ExperimentRunner runner;
    const auto fine = runner.runSchemes(
        fine_cfg, {SchemeSpec::snuca(), SchemeSpec::cdcs()}, mix);
    const auto bank = runner.runSchemes(
        bank_cfg, {SchemeSpec::snuca(), bank_spec}, mix);
    const double ws_fine = weightedSpeedup(fine[1], fine[0]);
    const double ws_bank = weightedSpeedup(bank[1], bank[0]);
    EXPECT_GT(ws_bank, 1.0);
    EXPECT_LT(ws_bank, ws_fine * 1.05);
}

} // anonymous namespace
} // namespace cdcs
