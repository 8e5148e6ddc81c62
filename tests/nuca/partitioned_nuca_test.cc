/**
 * @file
 * Tests for the partitioned-NUCA substrate: descriptor application,
 * bank target programming, the unwired-VC fault, and the three move
 * schemes (instant, bulk, demand + background).
 */

#include <gtest/gtest.h>

#include "nuca/partitioned_nuca.hh"

namespace cdcs
{
namespace
{

/** A runtime that returns a fixed allocation (for mechanism tests). */
class FixedRuntime : public ReconfigRuntime
{
  public:
    explicit FixedRuntime(std::vector<std::vector<double>> alloc)
        : fixedAlloc(std::move(alloc))
    {
    }

    RuntimeOutput
    reconfigure(const RuntimeInput &input) override
    {
        RuntimeOutput out;
        out.alloc = fixedAlloc;
        out.threadCore = input.threadCore;
        return out;
    }

    std::vector<std::vector<double>> fixedAlloc;
};

struct Fixture
{
    static constexpr int tiles = 4;     // 2x2 mesh.
    static constexpr std::uint64_t bankLines = 1024;
    static constexpr std::uint32_t ways = 16;

    Fixture(MoveScheme moves, std::vector<std::vector<double>> alloc)
        : mesh(2, 2), runtime(std::move(alloc))
    {
        for (int b = 0; b < tiles; b++)
            banks.emplace_back(bankLines, ways);
        PartitionedNucaConfig cfg;
        cfg.moves = moves;
        cfg.walkDelay = 1000;
        cfg.walkCyclesPerSet = 100;
        std::vector<ThreadVcWiring> wiring{{0, 1, 2}};
        policy = std::make_unique<PartitionedNucaPolicy>(
            &mesh, 1, bankLines, bankLines / ways, wiring, 3,
            &runtime, cfg);
    }

    RuntimeInput
    input()
    {
        RuntimeInput in;
        in.mesh = &mesh;
        in.numBanks = tiles;
        in.banksPerTile = 1;
        in.bankLines = bankLines;
        in.access = {{100.0, 10.0, 1.0}};
        in.threadCore = {0};
        in.missCurves.resize(3);
        return in;
    }

    Mesh mesh;
    FixedRuntime runtime;
    std::vector<PartitionedBank> banks;
    std::unique_ptr<PartitionedNucaPolicy> policy;
};

std::vector<std::vector<double>>
allToBank(TileId bank, int tiles, double lines)
{
    std::vector<std::vector<double>> alloc(
        3, std::vector<double>(tiles, 0.0));
    for (auto &row : alloc)
        row[bank] = lines;
    return alloc;
}

TEST(PartitionedNucaTest, BootstrapSpreadsAcrossBanks)
{
    Fixture fx(MoveScheme::Instant, allToBank(0, 4, 256));
    std::vector<int> counts(4, 0);
    for (LineAddr a = 0; a < 4096; a++)
        counts[fx.policy->map(0, 0, 0, a).bank]++;
    for (int c : counts)
        EXPECT_GT(c, 512);
}

TEST(PartitionedNucaTest, MapOfUnwiredVcDies)
{
    // Thread 0 is wired to VCs 0-2 only; any other VC is the
    // protection fault a VTB miss raises in hardware.
    Fixture fx(MoveScheme::Instant, allToBank(0, 4, 256));
    EXPECT_DEATH(fx.policy->map(0, 0, 3, 0x1), "VTB miss for VC 3");
}

TEST(PartitionedNucaTest, ReconfigureRedirectsMapping)
{
    Fixture fx(MoveScheme::Instant, allToBank(2, 4, 256));
    fx.policy->endEpoch(fx.input(), fx.banks);
    for (LineAddr a = 0; a < 256; a++)
        EXPECT_EQ(fx.policy->map(0, 0, 0, a).bank, 2);
}

TEST(PartitionedNucaTest, ReconfigureProgramsBankTargets)
{
    Fixture fx(MoveScheme::Instant, allToBank(1, 4, 300));
    fx.policy->endEpoch(fx.input(), fx.banks);
    EXPECT_EQ(fx.banks[1].target(0), 300u);
    EXPECT_EQ(fx.banks[0].target(0), 0u);
}

TEST(PartitionedNucaTest, InstantMovesRelocateLines)
{
    Fixture fx(MoveScheme::Instant, allToBank(3, 4, 512));
    // Populate under the bootstrap (spread) configuration.
    for (LineAddr a = 0; a < 200; a++) {
        const MapResult mr = fx.policy->map(0, 0, 0, a);
        fx.banks[mr.bank].access(a, 0, 0);
    }
    const EpochDirective dir = fx.policy->endEpoch(fx.input(),
                                                   fx.banks);
    EXPECT_TRUE(dir.reconfigured);
    EXPECT_GT(dir.movedLines, 100u);
    EXPECT_EQ(dir.pauseCycles, 0u);
    // All lines now hit in bank 3 without a memory access.
    int hits = 0;
    for (LineAddr a = 0; a < 200; a++) {
        if (fx.banks[3].probeHit(a, 0, 0))
            hits++;
    }
    EXPECT_GT(hits, 150);
}

TEST(PartitionedNucaTest, BulkInvalidationPausesAndDropsLines)
{
    Fixture fx(MoveScheme::BulkInvalidate, allToBank(3, 4, 512));
    for (LineAddr a = 0; a < 200; a++) {
        const MapResult mr = fx.policy->map(0, 0, 0, a);
        fx.banks[mr.bank].access(a, 0, 0);
    }
    const EpochDirective dir = fx.policy->endEpoch(fx.input(),
                                                   fx.banks);
    EXPECT_GT(dir.invalidatedLines, 100u);
    EXPECT_GT(dir.pauseCycles, 0u);
    // Moved lines are gone (they will miss to memory).
    int resident = 0;
    for (TileId b = 0; b < 4; b++) {
        const CacheArray &arr = fx.banks[b].rawArray();
        for (LineAddr a = 0; a < 200; a++) {
            if (arr.find(arr.setOf(a), a) != arr.numWays())
                resident++;
        }
    }
    EXPECT_LT(resident, 100);
    EXPECT_FALSE(fx.policy->demandMovesActive());
}

TEST(PartitionedNucaTest, DemandMovesReportOldBank)
{
    Fixture fx(MoveScheme::DemandBackground, allToBank(3, 4, 512));
    // Record bootstrap homes.
    std::vector<TileId> old_home(256);
    for (LineAddr a = 0; a < 256; a++)
        old_home[a] = fx.policy->map(0, 0, 0, a).bank;
    fx.policy->endEpoch(fx.input(), fx.banks);
    EXPECT_TRUE(fx.policy->demandMovesActive());
    int chased = 0;
    for (LineAddr a = 0; a < 256; a++) {
        const MapResult mr = fx.policy->map(0, 0, 0, a);
        EXPECT_EQ(mr.bank, 3);
        if (old_home[a] != 3) {
            EXPECT_EQ(mr.oldBank, old_home[a]);
            chased++;
        } else {
            EXPECT_EQ(mr.oldBank, invalidTile);
        }
    }
    EXPECT_GT(chased, 100);
}

TEST(PartitionedNucaTest, BackgroundWalkCompletesAndDropsShadows)
{
    Fixture fx(MoveScheme::DemandBackground, allToBank(3, 4, 512));
    for (LineAddr a = 0; a < 200; a++) {
        const MapResult mr = fx.policy->map(0, 0, 0, a);
        fx.banks[mr.bank].access(a, 0, 0);
    }
    fx.policy->endEpoch(fx.input(), fx.banks);

    // Before the walk delay nothing happens.
    EXPECT_EQ(fx.policy->advanceWalk(500, fx.banks), 0u);
    EXPECT_TRUE(fx.policy->demandMovesActive());

    // Long after the delay, the walk completes and invalidates all
    // out-of-place lines.
    const std::uint64_t invalidated =
        fx.policy->advanceWalk(1000000, fx.banks);
    EXPECT_GT(invalidated, 100u);
    EXPECT_FALSE(fx.policy->demandMovesActive());
    const MapResult mr = fx.policy->map(0, 0, 0, 7);
    EXPECT_EQ(mr.oldBank, invalidTile);
}

TEST(PartitionedNucaTest, WalkIsMonotonicInElapsedTime)
{
    Fixture fx(MoveScheme::DemandBackground, allToBank(3, 4, 512));
    for (LineAddr a = 0; a < 400; a++) {
        const MapResult mr = fx.policy->map(0, 0, 0, a);
        fx.banks[mr.bank].access(a, 0, 0);
    }
    fx.policy->endEpoch(fx.input(), fx.banks);
    std::uint64_t total = 0;
    Cycles t = 1000;
    while (fx.policy->demandMovesActive() && t < 100000) {
        total += fx.policy->advanceWalk(t, fx.banks);
        t += 400;
    }
    EXPECT_GT(total, 200u);
}

TEST(PartitionedNucaTest, BackgroundMovesPreserveLines)
{
    // Sec. IV-H ablation: the walker relocates lines instead of
    // invalidating them, so cold data survives a reconfiguration
    // without demand moves.
    Fixture fx(MoveScheme::BackgroundMoves, allToBank(3, 4, 512));
    for (LineAddr a = 0; a < 200; a++) {
        const MapResult mr = fx.policy->map(0, 0, 0, a);
        fx.banks[mr.bank].access(a, 0, 0);
    }
    fx.policy->endEpoch(fx.input(), fx.banks);
    const std::uint64_t processed =
        fx.policy->advanceWalk(1000000, fx.banks);
    EXPECT_GT(processed, 100u);
    EXPECT_FALSE(fx.policy->demandMovesActive());
    // Everything now hits in the new home without a memory access.
    int hits = 0;
    for (LineAddr a = 0; a < 200; a++) {
        if (fx.banks[3].probeHit(a, 0, 0))
            hits++;
    }
    EXPECT_GT(hits, 150);
}

TEST(PartitionedNucaTest, BackgroundMovesAlsoServeDemandMoves)
{
    // While the walk is in flight, accesses still chase lines to the
    // old bank (both background schemes share the demand-move path).
    Fixture fx(MoveScheme::BackgroundMoves, allToBank(3, 4, 512));
    for (LineAddr a = 0; a < 64; a++) {
        const MapResult mr = fx.policy->map(0, 0, 0, a);
        fx.banks[mr.bank].access(a, 0, 0);
    }
    fx.policy->endEpoch(fx.input(), fx.banks);
    EXPECT_TRUE(fx.policy->demandMovesActive());
    int chased = 0;
    for (LineAddr a = 0; a < 64; a++) {
        const MapResult mr = fx.policy->map(0, 0, 0, a);
        if (mr.oldBank != invalidTile)
            chased++;
    }
    EXPECT_GT(chased, 32);
}

} // anonymous namespace
} // namespace cdcs
