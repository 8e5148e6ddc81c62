/**
 * @file
 * Tests for the placement cost oracle (runtime/placement_cost.hh):
 * the zero-load oracle must reproduce the legacy Mesh arithmetic
 * exactly on every query, and the contention oracle must price
 * measured link waits monotonically in the injected load while
 * quantization keeps noise-level waits invisible.
 */

#include <gtest/gtest.h>

#include "net/noc_model.hh"
#include "runtime/placement_cost.hh"

namespace cdcs
{
namespace
{

/** Drive identical traffic into a contention mesh and refresh it. */
void
loadRoute(NocModel &noc, TileId src, TileId dst,
          std::uint32_t flits, int messages, double elapsed)
{
    for (int i = 0; i < messages; i++)
        noc.addTraffic(TrafficClass::L2ToLLC, src, dst, flits);
    noc.epochUpdate(elapsed);
}

TEST(PlacementCostTest, ZeroLoadOracleEqualsMeshArithmetic)
{
    // The acceptance contract of the refactor: under the zero-load
    // model every oracle query is the exact legacy expression, on
    // every tile pair, so consumers produce byte-identical results.
    Mesh mesh(8, 8);
    NocModel noc(mesh);
    const PlacementCostModel cost =
        PlacementCostModel::fromNoc(noc, 4.0);
    ASSERT_TRUE(cost.valid());
    EXPECT_FALSE(cost.contended());
    for (TileId a = 0; a < mesh.numTiles(); a++) {
        for (TileId b = 0; b < mesh.numTiles(); b++) {
            EXPECT_EQ(cost.tileDist(a, b),
                      static_cast<double>(mesh.hops(a, b)));
        }
        EXPECT_EQ(cost.avgMemDist(a), mesh.avgHopsToMemCtrl(a));
        for (double x = 0.0; x < 8.0; x += 0.25) {
            for (double y = 0.0; y < 8.0; y += 1.75) {
                EXPECT_EQ(cost.distanceToPoint(a, x, y),
                          mesh.distanceToPoint(a, x, y));
            }
        }
    }
    for (double banks = 0.0; banks <= 64.0; banks += 0.5)
        EXPECT_EQ(cost.optimisticDistance(banks),
                  mesh.optimisticDistance(banks));
}

TEST(PlacementCostTest, UnloadedContentionNocIsZeroWait)
{
    // Before any traffic (or after an idle epoch) the contention
    // model reports no waits, and the oracle degenerates to the
    // zero-load arithmetic.
    Mesh mesh(4, 4);
    NocModel noc(mesh, 1.0, 0.95);
    noc.epochUpdate(10000.0);
    const PlacementCostModel cost =
        PlacementCostModel::fromNoc(noc, 4.0);
    EXPECT_FALSE(cost.contended());
    EXPECT_EQ(cost.tileDist(0, 15),
              static_cast<double>(mesh.hops(0, 15)));
}

TEST(PlacementCostTest, ContendedRouteCostsMoreThanHops)
{
    Mesh mesh(4, 4);
    NocModel noc(mesh, 1.0, 0.95);
    // Saturate the row-0 route: near-clamp utilization on its links.
    loadRoute(noc, mesh.tileAt(0, 0), mesh.tileAt(3, 0),
              /*flits=*/4, /*messages=*/4000, /*elapsed=*/4000.0);
    const PlacementCostModel cost =
        PlacementCostModel::fromNoc(noc, 4.0);
    ASSERT_TRUE(cost.contended());
    const TileId src = mesh.tileAt(0, 0);
    const TileId dst = mesh.tileAt(3, 0);
    EXPECT_GT(cost.tileDist(src, dst),
              static_cast<double>(mesh.hops(src, dst)));
    // A route through quiet links is undisturbed.
    EXPECT_EQ(cost.tileDist(mesh.tileAt(0, 3), mesh.tileAt(3, 3)),
              static_cast<double>(mesh.hops(mesh.tileAt(0, 3),
                                            mesh.tileAt(3, 3))));
}

TEST(PlacementCostTest, EffectiveDistanceMonotoneInInjectedLoad)
{
    // Same measured traffic, increasing injection scale: the
    // effective distance of the loaded route never decreases and
    // eventually strictly exceeds the zero-load hops.
    Mesh mesh(4, 4);
    const TileId src = mesh.tileAt(0, 0);
    const TileId dst = mesh.tileAt(3, 0);
    double prev = 0.0;
    for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
        NocModel noc(mesh, scale, 0.95);
        loadRoute(noc, src, dst, /*flits=*/2, /*messages=*/1000,
                  /*elapsed=*/8000.0);
        const PlacementCostModel cost =
            PlacementCostModel::fromNoc(noc, 4.0);
        const double dist = cost.tileDist(src, dst);
        EXPECT_GE(dist, prev);
        prev = dist;
    }
    EXPECT_GT(prev, static_cast<double>(mesh.hops(src, dst)));
}

TEST(PlacementCostTest, QuantizationSuppressesNoiseWaits)
{
    // A lightly loaded link (utilization a few percent) yields a
    // sub-quantum wait; the oracle must treat it as zero-load so the
    // placement tie-breaks stay in charge.
    Mesh mesh(4, 4);
    NocModel noc(mesh, 1.0, 0.95);
    loadRoute(noc, mesh.tileAt(0, 0), mesh.tileAt(3, 0),
              /*flits=*/1, /*messages=*/100, /*elapsed=*/10000.0);
    const PlacementCostModel cost =
        PlacementCostModel::fromNoc(noc, 4.0);
    EXPECT_FALSE(cost.contended());
}

TEST(PlacementCostTest, EwmaBlendDampsWaitSwings)
{
    Mesh mesh(4, 4);
    const TileId src = mesh.tileAt(0, 0);
    const TileId dst = mesh.tileAt(3, 0);

    NocModel loaded(mesh, 1.0, 0.95);
    loadRoute(loaded, src, dst, /*flits=*/4, /*messages=*/4000,
              /*elapsed=*/4000.0);
    const PlacementCostModel hot =
        PlacementCostModel::fromNoc(loaded, 4.0);
    const double hot_dist = hot.tileDist(src, dst);

    // The next epoch measures an idle network; with alpha = 0.5 the
    // blended oracle still charges about half the previous wait
    // instead of snapping to zero.
    NocModel idle(mesh, 1.0, 0.95);
    idle.epochUpdate(4000.0);
    const PlacementCostModel blended =
        PlacementCostModel::fromNoc(idle, 4.0, &hot, 0.5);
    const double hops = mesh.hops(src, dst);
    EXPECT_GT(blended.tileDist(src, dst), hops);
    EXPECT_LT(blended.tileDist(src, dst), hot_dist);

    // alpha = 1.0 (no smoothing) snaps to the fresh measurement.
    const PlacementCostModel unsmoothed =
        PlacementCostModel::fromNoc(idle, 4.0, &hot, 1.0);
    EXPECT_EQ(unsmoothed.tileDist(src, dst), hops);
}

TEST(PlacementCostTest, DistanceToPointChargesAnchorRoute)
{
    // distanceToPoint charges the wait of the route to the tile
    // nearest the point: a thread looking toward a center of mass
    // behind saturated links sees the inflated distance.
    Mesh mesh(4, 4);
    NocModel noc(mesh, 1.0, 0.95);
    loadRoute(noc, mesh.tileAt(0, 0), mesh.tileAt(3, 0),
              /*flits=*/4, /*messages=*/4000, /*elapsed=*/4000.0);
    const PlacementCostModel cost =
        PlacementCostModel::fromNoc(noc, 4.0);
    ASSERT_TRUE(cost.contended());
    const TileId src = mesh.tileAt(0, 0);
    EXPECT_GT(cost.distanceToPoint(src, 3.1, 0.2),
              mesh.distanceToPoint(src, 3.1, 0.2));
    // Quiet row: geometric distance only.
    const TileId quiet = mesh.tileAt(0, 3);
    EXPECT_EQ(cost.distanceToPoint(quiet, 3.1, 2.9),
              mesh.distanceToPoint(quiet, 3.1, 2.9));
}

} // anonymous namespace
} // namespace cdcs
