/**
 * @file
 * Tests for the reconfiguration-stability layer (DESIGN.md Sec. 6):
 * the runtime pipeline must reach a fixed point on stationary inputs,
 * and size hysteresis must absorb noise without masking real change.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "runtime/cdcs_runtime.hh"
#include "runtime/refined_placer.hh"
#include "sim/system_config.hh"

namespace cdcs
{
namespace
{

constexpr double tileCap = 8192.0;

RuntimeInput
stationaryInput(const Mesh &mesh, int threads, double jitter,
                std::uint64_t seed)
{
    Rng rng(seed);
    RuntimeInput in;
    in.mesh = &mesh;
    in.numBanks = mesh.numTiles();
    in.banksPerTile = 1;
    in.bankLines = static_cast<std::uint64_t>(tileCap);
    in.allocGranule = 64;
    const int num_vcs = threads + 2;
    for (int d = 0; d < num_vcs; d++) {
        Curve miss;
        const double noise = 1.0 + rng.uniform(-jitter, jitter);
        if (d < threads) {
            miss.addPoint(0.0, 40000.0 * noise);
            miss.addPoint(2.5 * tileCap, 38000.0 * noise);
            miss.addPoint(2.7 * tileCap, 800.0 * noise);
            miss.addPoint(20.0 * tileCap, 700.0 * noise);
        } else {
            miss.addPoint(0.0, 50.0);
            miss.addPoint(20.0 * tileCap, 50.0);
        }
        in.missCurves.push_back(miss);
    }
    for (int t = 0; t < threads; t++) {
        std::vector<double> row(num_vcs, 0.0);
        row[t] = 50000.0 * (1.0 + rng.uniform(-jitter, jitter));
        row[num_vcs - 2] = 10.0;
        row[num_vcs - 1] = 2.0;
        in.access.push_back(row);
        in.threadCore.push_back(static_cast<TileId>(t));
    }
    return in;
}

TEST(StabilityTest, PipelineReachesFixedPointOnNoisyInputs)
{
    // Feed the runtime slightly-jittered versions of the same
    // stationary workload: after the first reconfiguration, outputs
    // must stop changing (sizes via hysteresis, placement via the
    // deterministic quantized pipeline).
    Mesh mesh(6, 6);
    CdcsRuntime runtime;
    RuntimeOutput prev;
    int changed_epochs = 0;
    for (int epoch = 0; epoch < 6; epoch++) {
        const RuntimeInput in =
            stationaryInput(mesh, 6, 0.04, 100 + epoch);
        RuntimeOutput out = runtime.reconfigure(in);
        if (epoch > 0) {
            double diff = 0.0;
            for (std::size_t d = 0; d < out.alloc.size(); d++) {
                for (std::size_t b = 0; b < out.alloc[d].size(); b++)
                    diff += std::abs(out.alloc[d][b] -
                                     prev.alloc[d][b]);
            }
            if (diff > 1024.0)
                changed_epochs++;
        }
        prev = std::move(out);
    }
    // At most the first post-bootstrap step may still be settling.
    EXPECT_LE(changed_epochs, 1);
}

TEST(StabilityTest, SizeHysteresisStillTracksRealChange)
{
    // A genuine 2x working-set growth must not be masked.
    Mesh mesh(6, 6);
    CdcsRuntime runtime;
    RuntimeInput small = stationaryInput(mesh, 4, 0.0, 1);
    const RuntimeOutput before = runtime.reconfigure(small);

    RuntimeInput big = small;
    for (int d = 0; d < 4; d++) {
        Curve miss;
        miss.addPoint(0.0, 40000.0);
        miss.addPoint(5.0 * tileCap, 38000.0);
        miss.addPoint(5.4 * tileCap, 800.0);
        miss.addPoint(20.0 * tileCap, 700.0);
        big.missCurves[d] = miss;
    }
    const RuntimeOutput after = runtime.reconfigure(big);
    double size_before = 0.0, size_after = 0.0;
    for (double a : before.alloc[0])
        size_before += a;
    for (double a : after.alloc[0])
        size_after += a;
    // The cliff moved from ~2.6 to ~5.4 tiles; the new allocation
    // must track it (well beyond any hysteresis band).
    EXPECT_GT(size_after, 1.3 * size_before);
}

TEST(StabilityTest, TradeThresholdSuppressesMarginalSwaps)
{
    // With a huge threshold the trading pass must change nothing
    // relative to greedy.
    Mesh mesh(4, 4);
    std::vector<double> sizes{4.0 * tileCap, 4.0 * tileCap};
    std::vector<std::vector<double>> access{{900.0, 0.0},
                                            {0.0, 1000.0}};
    std::vector<TileId> cores{0, 15};
    RefinedPlacerConfig greedy;
    greedy.trades = false;
    RefinedPlacerConfig guarded;
    guarded.trades = true;
    guarded.tradeThresholdHops = 1e9;
    const auto a = refinePlace(sizes, access, cores, mesh, tileCap,
                               greedy);
    const auto b = refinePlace(sizes, access, cores, mesh, tileCap,
                               guarded);
    for (std::size_t d = 0; d < a.size(); d++) {
        for (TileId t = 0; t < mesh.numTiles(); t++)
            EXPECT_DOUBLE_EQ(a[d][t], b[d][t]);
    }
}

TEST(StabilityTest, JigsawAllocatesAllCapacityDeterministically)
{
    // Jigsaw hands out the full LLC; two runs with identical inputs
    // must produce identical allocations.
    Mesh mesh(6, 6);
    const CdcsOptions jigsaw =
        SchemeSpec::jigsaw(InitialSched::Random).cdcsOpts;
    CdcsRuntime r1(jigsaw), r2(jigsaw);
    const RuntimeInput in = stationaryInput(mesh, 8, 0.0, 9);
    const RuntimeOutput a = r1.reconfigure(in);
    const RuntimeOutput b = r2.reconfigure(in);
    double total = 0.0;
    for (std::size_t d = 0; d < a.alloc.size(); d++) {
        for (std::size_t bk = 0; bk < a.alloc[d].size(); bk++) {
            EXPECT_DOUBLE_EQ(a.alloc[d][bk], b.alloc[d][bk]);
            total += a.alloc[d][bk];
        }
    }
    // All (or nearly all, modulo granule rounding) capacity is out.
    EXPECT_GT(total, 0.95 * tileCap * mesh.numTiles());
}

} // anonymous namespace
} // namespace cdcs
