/**
 * @file
 * Tests for total-latency curve construction (Sec. IV-C / Fig. 5).
 */

#include <gtest/gtest.h>

#include "net/noc_model.hh"
#include "runtime/curves.hh"

namespace cdcs
{
namespace
{

Curve
cliffMissCurve(double total, double cliff_x)
{
    Curve c;
    c.addPoint(0.0, total);
    c.addPoint(cliff_x, total * 0.95);
    c.addPoint(cliff_x * 1.05, total * 0.02);
    c.addPoint(cliff_x * 30.0, total * 0.02);
    return c;
}

TEST(LatencyCurveTest, MissOnlyModeIsScaledMissCurve)
{
    Mesh mesh(8, 8);
    LatencyModel lat;
    Curve miss = cliffMissCurve(1000.0, 8192.0);
    const Curve total =
        totalLatencyCurve(miss, 5000.0, mesh, 8192.0, lat, false);
    // Monotone non-increasing: no on-chip term.
    EXPECT_TRUE(total.isNonIncreasing(1e-6));
    // Off-chip cost dominates: ratio between endpoints tracks misses.
    EXPECT_GT(total.at(0.0), total.at(32768.0) * 10.0);
}

TEST(LatencyCurveTest, LatencyAwareCurveHasSweetSpot)
{
    // Fig. 5: off-chip falls, on-chip grows; the total is U-shaped
    // for a VC whose misses stop improving. Accesses must be in the
    // same ballpark as misses (a cliff app misses most accesses below
    // the fit).
    Mesh mesh(8, 8);
    LatencyModel lat;
    Curve miss = cliffMissCurve(1000.0, 8192.0);
    const Curve total =
        totalLatencyCurve(miss, 1100.0, mesh, 8192.0, lat, true);
    const double at_fit = total.at(9000.0);
    const double at_huge = total.at(8192.0 * 40);
    EXPECT_LT(at_fit, total.at(0.0));
    EXPECT_LT(at_fit, at_huge); // Going far beyond the fit hurts.
}

TEST(LatencyCurveTest, StreamingAppGainsNothing)
{
    // Flat miss curve (milc): any allocation only adds on-chip
    // latency, so the curve is minimized at (near) zero.
    Mesh mesh(8, 8);
    LatencyModel lat;
    Curve miss;
    miss.addPoint(0.0, 500.0);
    miss.addPoint(8192.0 * 64, 500.0);
    const Curve total =
        totalLatencyCurve(miss, 20000.0, mesh, 8192.0, lat, true);
    double best_x = 0.0;
    double best_y = total.at(0.0);
    for (const auto &p : total.samples()) {
        if (p.y < best_y) {
            best_y = p.y;
            best_x = p.x;
        }
    }
    EXPECT_LT(best_x, 8192.0);
}

TEST(LatencyCurveTest, HigherIntensityShiftsSweetSpotSmaller)
{
    Mesh mesh(8, 8);
    LatencyModel lat;
    // Gradually-improving misses.
    Curve miss;
    for (double x = 0.0; x <= 8192.0 * 32; x += 8192.0)
        miss.addPoint(x, 2000.0 / (1.0 + x / 8192.0));

    auto sweet_spot = [&](double accesses) {
        const Curve total = totalLatencyCurve(miss, accesses, mesh,
                                              8192.0, lat, true);
        double bx = 0.0, by = total.at(0.0);
        for (const auto &p : total.samples()) {
            if (p.y < by) {
                by = p.y;
                bx = p.x;
            }
        }
        return bx;
    };
    // More accesses -> on-chip latency matters more -> smaller
    // latency-optimal allocation.
    EXPECT_LE(sweet_spot(3.0e6), sweet_spot(1.0e4));
}

TEST(LatencyCurveTest, TileBoundariesAreExactMultiples)
{
    // Regression: the sample boundaries used to be generated by
    // floating-point accumulation (x += tile_capacity), which drifts
    // for fractional capacities and could skip the final boundary at
    // max_x. Integer multiples must hit every boundary exactly.
    Mesh mesh(4, 4);
    LatencyModel lat;
    const double cap = 0.3 * 8192.0; // 2457.6: not representable.
    Curve miss;
    miss.addPoint(0.0, 1000.0);
    miss.addPoint(8.0 * cap, 10.0); // max_x = exactly 8 * cap.
    const Curve total =
        totalLatencyCurve(miss, 500.0, mesh, cap, lat, true);
    for (int k = 1; k <= 8; k++) {
        const double x = static_cast<double>(k) * cap;
        bool found = false;
        for (const auto &p : total.samples())
            found = found || p.x == x;
        EXPECT_TRUE(found) << "missing boundary at " << k
                           << " * tile capacity";
    }
}

TEST(LatencyCurveTest, ZeroWaitOracleLeavesCurveUnchanged)
{
    // The cost-oracle plumbing must be inert without waits: same
    // samples, bit for bit.
    Mesh mesh(8, 8);
    LatencyModel lat;
    const PlacementCostModel cost(mesh, lat.hopCycles);
    Curve miss = cliffMissCurve(1000.0, 8192.0);
    for (const bool aware : {false, true}) {
        const Curve legacy = totalLatencyCurve(miss, 1100.0, mesh,
                                               8192.0, lat, aware);
        const Curve oracle = totalLatencyCurve(
            miss, 1100.0, mesh, 8192.0, lat, aware, &cost);
        ASSERT_EQ(legacy.samples().size(), oracle.samples().size());
        for (std::size_t i = 0; i < legacy.samples().size(); i++) {
            EXPECT_EQ(legacy.samples()[i].x, oracle.samples()[i].x);
            EXPECT_EQ(legacy.samples()[i].y, oracle.samples()[i].y);
        }
    }
}

TEST(LatencyCurveTest, ContendedOracleRaisesTheCurve)
{
    // Measured congestion inflates both the mem-route term and the
    // on-chip term, so every point of the total-latency curve is at
    // least the zero-load one.
    Mesh mesh(4, 4);
    LatencyModel lat;
    NocModel noc(mesh, 4.0, 0.95);
    for (TileId t = 0; t < mesh.numTiles(); t++) {
        for (int c = 0; c < mesh.numMemCtrls(); c++) {
            for (int i = 0; i < 100; i++)
                noc.addMemTraffic(TrafficClass::LLCToMem, t, c, 4);
        }
    }
    noc.epochUpdate(2000.0);
    const PlacementCostModel cost =
        PlacementCostModel::fromNoc(noc, lat.hopCycles);
    ASSERT_TRUE(cost.contended());
    Curve miss = cliffMissCurve(1000.0, 8192.0);
    const Curve legacy =
        totalLatencyCurve(miss, 1100.0, mesh, 8192.0, lat, true);
    const Curve contended = totalLatencyCurve(miss, 1100.0, mesh,
                                              8192.0, lat, true,
                                              &cost);
    for (const auto &p : legacy.samples())
        EXPECT_GE(contended.at(p.x) + 1e-9, p.y);
}

} // anonymous namespace
} // namespace cdcs
