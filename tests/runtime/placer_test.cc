/**
 * @file
 * Tests for the three placement stages: optimistic contention-aware VC
 * placement, thread placement, and refined placement with trades.
 */

#include <gtest/gtest.h>

#include "net/noc_model.hh"
#include "runtime/optimistic_placer.hh"
#include "runtime/refined_placer.hh"
#include "runtime/thread_placer.hh"

namespace cdcs
{
namespace
{

constexpr double tileCap = 8192.0;

TEST(OptimisticPlacerTest, TwoBigVcsAvoidEachOther)
{
    Mesh mesh(6, 6);
    // Two VCs of ~9 tiles each: their centers must separate.
    std::vector<double> sizes{9 * tileCap, 9 * tileCap};
    const OptimisticPlacement p = optimisticPlace(sizes, mesh, tileCap);
    const double dist = std::abs(p.comX[0] - p.comX[1]) +
        std::abs(p.comY[0] - p.comY[1]);
    EXPECT_GT(dist, 1.5);
}

TEST(OptimisticPlacerTest, SmallVcBarelyMatters)
{
    Mesh mesh(6, 6);
    std::vector<double> sizes{tileCap / 64, 9 * tileCap};
    const OptimisticPlacement p = optimisticPlace(sizes, mesh, tileCap);
    // The big VC is placed first; the compactness tie-break lands it
    // near the chip center.
    EXPECT_NEAR(p.comX[1], 2.5, 1.1);
    EXPECT_NEAR(p.comY[1], 2.5, 1.1);
}

TEST(OptimisticPlacerTest, ComsStayOnChip)
{
    Mesh mesh(8, 8);
    std::vector<double> sizes;
    for (int i = 0; i < 20; i++)
        sizes.push_back((i % 5) * tileCap);
    const OptimisticPlacement p = optimisticPlace(sizes, mesh, tileCap);
    for (std::size_t d = 0; d < sizes.size(); d++) {
        EXPECT_GE(p.comX[d], 0.0);
        EXPECT_LE(p.comX[d], 7.0);
        EXPECT_GE(p.comY[d], 0.0);
        EXPECT_LE(p.comY[d], 7.0);
    }
}

TEST(ThreadPlacerTest, ThreadMovesToItsData)
{
    Mesh mesh(4, 4);
    OptimisticPlacement p;
    p.comX = {3.0};
    p.comY = {3.0};
    std::vector<std::vector<double>> access{{1000.0}};
    std::vector<double> sizes{tileCap};
    const auto cores = placeThreads(p, access, sizes, mesh, {0});
    EXPECT_EQ(cores[0], mesh.tileAt(3, 3));
}

TEST(ThreadPlacerTest, AssignmentIsInjective)
{
    Mesh mesh(4, 4);
    const int threads = 16;
    OptimisticPlacement p;
    std::vector<std::vector<double>> access;
    std::vector<double> sizes;
    for (int t = 0; t < threads; t++) {
        p.comX.push_back(1.5);
        p.comY.push_back(1.5);
        sizes.push_back(tileCap);
        std::vector<double> row(threads, 0.0);
        row[t] = 100.0;
        access.push_back(row);
    }
    const auto cores = placeThreads(p, access, sizes, mesh,
                                    std::vector<TileId>(threads, 0));
    std::vector<bool> used(mesh.numTiles(), false);
    for (TileId c : cores) {
        EXPECT_FALSE(used[c]);
        used[c] = true;
    }
}

TEST(ThreadPlacerTest, IntensityCapacityOrderWins)
{
    // Two threads want the same core; the one with the higher
    // intensity-capacity product gets it.
    Mesh mesh(4, 4);
    OptimisticPlacement p;
    p.comX = {0.0, 0.0};
    p.comY = {0.0, 0.0};
    std::vector<std::vector<double>> access{{1000.0, 0.0},
                                            {0.0, 10.0}};
    std::vector<double> sizes{8 * tileCap, 8 * tileCap};
    const auto cores = placeThreads(p, access, sizes, mesh, {5, 5});
    EXPECT_EQ(cores[0], mesh.tileAt(0, 0));
    EXPECT_NE(cores[1], mesh.tileAt(0, 0));
}

TEST(ThreadPlacerTest, HysteresisKeepsEquivalentPlacement)
{
    Mesh mesh(4, 4);
    OptimisticPlacement p;
    p.comX = {1.5};
    p.comY = {1.5};
    std::vector<std::vector<double>> access{{10.0}};
    std::vector<double> sizes{tileCap};
    // Current core 5 = (1,1) is among the distance-optimal cores;
    // hysteresis must keep the thread there.
    const auto cores = placeThreads(p, access, sizes, mesh, {5});
    EXPECT_EQ(cores[0], 5);
}

TEST(ThreadPlacerTest, IdleThreadsKeepTheirCores)
{
    // Regression: a zero-traffic thread costs 0.0 on every free core,
    // and the multiplicative hysteresis (cost *= 0.95) cannot win the
    // strict less-than comparison at zero — idle threads used to
    // churn to the lowest free core id every epoch. Ties must break
    // toward the current core.
    Mesh mesh(4, 4);
    OptimisticPlacement p;
    p.comX = {1.5};
    p.comY = {1.5};
    std::vector<std::vector<double>> access{{0.0}, {0.0}, {0.0}};
    std::vector<double> sizes{tileCap};
    const std::vector<TileId> current{9, 14, 3};
    const auto cores = placeThreads(p, access, sizes, mesh, current);
    EXPECT_EQ(cores, current);
}

TEST(ThreadPlacerTest, IdleThreadAmongActiveOnesStaysPut)
{
    // One active thread placed first, idle threads keep their cores
    // (none of which the active thread wants).
    Mesh mesh(4, 4);
    OptimisticPlacement p;
    p.comX = {0.0};
    p.comY = {0.0};
    std::vector<std::vector<double>> access{{0.0}, {1000.0}, {0.0}};
    std::vector<double> sizes{4 * tileCap};
    const std::vector<TileId> current{10, 0, 7};
    const auto cores = placeThreads(p, access, sizes, mesh, current);
    EXPECT_EQ(cores[0], 10);
    EXPECT_EQ(cores[2], 7);
}

TEST(ThreadPlacerTest, ZeroWaitOracleMatchesMeshChoice)
{
    // A zero-wait oracle must not change any placement decision.
    Mesh mesh(4, 4);
    const PlacementCostModel cost(mesh, 4.0);
    OptimisticPlacement p;
    p.comX = {3.0, 0.5};
    p.comY = {3.0, 2.5};
    std::vector<std::vector<double>> access{{1000.0, 0.0},
                                            {10.0, 500.0}};
    std::vector<double> sizes{tileCap, 2 * tileCap};
    const std::vector<TileId> current{0, 5};
    const auto baseline =
        placeThreads(p, access, sizes, mesh, current, nullptr);
    const auto oracle =
        placeThreads(p, access, sizes, mesh, current, &cost);
    EXPECT_EQ(baseline, oracle);
}

TEST(ThreadPlacerTest, ContendedRouteRepelsThread)
{
    // Two threads want the data at (1,1): the heavy one takes the
    // center tile, and the light one must choose among the
    // equidistant neighbors. When the south link of (1,0) is
    // saturated, every candidate routing through it inflates, so the
    // thread lands on the quiet (0,1) core instead of the
    // lowest-id (1,0).
    Mesh mesh(4, 4);
    OptimisticPlacement p;
    p.comX = {1.0};
    p.comY = {1.0};
    std::vector<std::vector<double>> access{{100000.0}, {1000.0}};
    std::vector<double> sizes{tileCap};
    const std::vector<TileId> current{15, 14};

    const auto baseline =
        placeThreads(p, access, sizes, mesh, current, nullptr);
    EXPECT_EQ(baseline[0], mesh.tileAt(1, 1));
    EXPECT_EQ(baseline[1], mesh.tileAt(1, 0));

    NocModel noc(mesh, 1.0, 0.95);
    for (int i = 0; i < 4000; i++) {
        noc.addTraffic(TrafficClass::L2ToLLC, mesh.tileAt(1, 0),
                       mesh.tileAt(1, 1), 4);
    }
    noc.epochUpdate(4000.0);
    const PlacementCostModel cost =
        PlacementCostModel::fromNoc(noc, 4.0);
    ASSERT_TRUE(cost.contended());
    const auto steered =
        placeThreads(p, access, sizes, mesh, current, &cost);
    EXPECT_EQ(steered[0], mesh.tileAt(1, 1));
    EXPECT_EQ(steered[1], mesh.tileAt(0, 1));
}

TEST(RefinedPlacerTest, GreedyFillsNearestTiles)
{
    Mesh mesh(4, 4);
    std::vector<double> sizes{2 * tileCap};
    std::vector<std::vector<double>> access{{1000.0}};
    std::vector<TileId> cores{mesh.tileAt(0, 0)};
    RefinedPlacerConfig cfg;
    cfg.trades = false;
    const auto alloc =
        refinePlace(sizes, access, cores, mesh, tileCap, cfg);
    // All capacity within 1 hop of the accessor.
    double near = 0.0;
    for (TileId b = 0; b < mesh.numTiles(); b++) {
        if (mesh.hops(cores[0], b) <= 1)
            near += alloc[0][b];
    }
    EXPECT_NEAR(near, 2 * tileCap, 1.0);
}

TEST(RefinedPlacerTest, CapacityConservedAndNonNegative)
{
    Mesh mesh(4, 4);
    std::vector<double> sizes{3 * tileCap, 5 * tileCap, 0.5 * tileCap};
    std::vector<std::vector<double>> access{
        {100.0, 0.0, 0.0}, {0.0, 400.0, 0.0}, {0.0, 0.0, 50.0}};
    std::vector<TileId> cores{0, 5, 15};
    const auto alloc =
        refinePlace(sizes, access, cores, mesh, tileCap, {});
    std::vector<double> tile_use(mesh.numTiles(), 0.0);
    for (std::size_t d = 0; d < sizes.size(); d++) {
        double placed = 0.0;
        for (TileId b = 0; b < mesh.numTiles(); b++) {
            EXPECT_GE(alloc[d][b], 0.0);
            placed += alloc[d][b];
            tile_use[b] += alloc[d][b];
        }
        EXPECT_NEAR(placed, sizes[d], 1.0);
    }
    for (double use : tile_use)
        EXPECT_LE(use, tileCap + 1e-6);
}

TEST(RefinedPlacerTest, TradesNeverWorsenOnChipCost)
{
    Mesh mesh(6, 6);
    // Heavy contention: several VCs anchored in one corner.
    std::vector<double> sizes;
    std::vector<std::vector<double>> access;
    std::vector<TileId> cores;
    const int n = 6;
    for (int i = 0; i < n; i++) {
        sizes.push_back(4 * tileCap);
        std::vector<double> row(n, 0.0);
        row[i] = 100.0 * (i + 1);
        access.push_back(row);
        cores.push_back(static_cast<TileId>(i)); // Clustered corner.
    }
    RefinedPlacerConfig greedy_cfg;
    greedy_cfg.trades = false;
    const auto greedy =
        refinePlace(sizes, access, cores, mesh, tileCap, greedy_cfg);
    RefinedPlacerConfig trade_cfg;
    trade_cfg.trades = true;
    const auto traded =
        refinePlace(sizes, access, cores, mesh, tileCap, trade_cfg);
    EXPECT_LE(onChipCost(traded, sizes, access, cores, mesh),
              onChipCost(greedy, sizes, access, cores, mesh) + 1e-6);
}

TEST(RefinedPlacerTest, IntenseVcGetsCloserData)
{
    Mesh mesh(4, 4);
    // Two VCs anchored at the same core, one 10x more intense; it
    // should end up with lower weighted distance.
    std::vector<double> sizes{2 * tileCap, 2 * tileCap};
    std::vector<std::vector<double>> access{{1000.0, 100.0}};
    std::vector<TileId> cores{0};
    const auto alloc =
        refinePlace(sizes, access, cores, mesh, tileCap, {});
    auto weighted_dist = [&](int d) {
        double sum = 0.0, w = 0.0;
        for (TileId b = 0; b < mesh.numTiles(); b++) {
            sum += alloc[d][b] * mesh.hops(0, b);
            w += alloc[d][b];
        }
        return sum / w;
    };
    EXPECT_LE(weighted_dist(0), weighted_dist(1) + 1e-9);
}

} // anonymous namespace
} // namespace cdcs
