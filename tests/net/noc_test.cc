/**
 * @file
 * Tests for the NoC model: zero-load parity with the legacy Mesh
 * arithmetic and no link state without contention, contention-model
 * monotonicity and clamping, memory legs as a route plus an attach
 * link, per-link accounting conservation (link flits sum to
 * flit-hops), and the deferred pair-matrix accounting against a
 * per-message route walk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "net/noc_model.hh"
#include "obs/stat_registry.hh"

namespace cdcs
{
namespace
{

TEST(ZeroLoadNocTest, LatencyMatchesLegacyMeshArithmetic)
{
    const Mesh mesh(6, 6);
    const NocModel noc(mesh);
    for (TileId a = 0; a < mesh.numTiles(); a++) {
        for (TileId b = 0; b < mesh.numTiles(); b++) {
            for (std::uint32_t flits : {1u, 5u}) {
                EXPECT_EQ(noc.latency(a, b, flits),
                          static_cast<double>(mesh.latency(
                              mesh.hops(a, b), flits)));
            }
        }
    }
}

TEST(ZeroLoadNocTest, MemLatencyMatchesLegacyMeshArithmetic)
{
    const Mesh mesh(8, 8);
    const NocModel noc(mesh);
    for (TileId t = 0; t < mesh.numTiles(); t++) {
        for (int c = 0; c < mesh.numMemCtrls(); c++) {
            EXPECT_EQ(noc.memLatency(t, c, 5),
                      static_cast<double>(mesh.latency(
                          mesh.hopsToCtrl(t, c), 5)));
        }
    }
}

TEST(ZeroLoadNocTest, TrafficAccountingMatchesMeshCounters)
{
    const Mesh mesh(4, 4);
    NocModel noc(mesh);
    const TileId a = mesh.tileAt(0, 0);
    const TileId b = mesh.tileAt(3, 0); // 3 hops.
    noc.addTraffic(TrafficClass::L2ToLLC, a, b, 5);
    noc.addMemTraffic(TrafficClass::LLCToMem, a, 2, 1);
    EXPECT_EQ(noc.trafficFlitHops(TrafficClass::L2ToLLC), 15u);
    EXPECT_EQ(noc.trafficFlitHops(TrafficClass::LLCToMem),
              static_cast<std::uint64_t>(mesh.hopsToCtrl(a, 2)));
    EXPECT_EQ(noc.totalFlitHops(),
              15u + static_cast<std::uint64_t>(mesh.hopsToCtrl(a, 2)));
    noc.clearTraffic();
    EXPECT_EQ(noc.totalFlitHops(), 0u);
    EXPECT_TRUE(noc.linkStats().empty());
}

TEST(ZeroLoadNocTest, KeepsNoLinkStateUnderTraffic)
{
    // The zero-load model counts per-class flit-hops and nothing
    // else: after traffic on every leg kind and both epoch closes it
    // reports no links, charges no wait and bumps no `noc.*` stat.
    const StatId flits_id = StatRegistry::counter("noc.link_flits");
    const StatId sat_id = StatRegistry::counter("noc.saturated_links");
    StatRegistry::setEnabled(true);
    const Mesh mesh(4, 4);
    NocModel noc(mesh);
    const StatRegistry::Snapshot before = StatRegistry::localSnapshot();
    std::uint64_t flit_hops = 0;
    for (TileId a = 0; a < mesh.numTiles(); a++) {
        for (TileId b = 0; b < mesh.numTiles(); b++) {
            noc.addTraffic(TrafficClass::L2ToLLC, a, b, 1000);
            flit_hops += 1000u * static_cast<std::uint64_t>(
                mesh.hops(a, b));
        }
        for (int c = 0; c < mesh.numMemCtrls(); c++) {
            noc.addMemTraffic(TrafficClass::LLCToMem, a, c, 1000);
            noc.addMemResponse(TrafficClass::LLCToMem, c, a, 1000);
            noc.addFarMemTraffic(TrafficClass::LLCToMem, a, c, 1000);
            noc.addFarMemResponse(TrafficClass::LLCToMem, c, a, 1000);
            flit_hops += 4000u * static_cast<std::uint64_t>(
                mesh.hopsToCtrl(a, c));
        }
    }
    noc.epochUpdate(10.0);
    noc.finalEpoch(10.0);
    const StatRegistry::Snapshot after = StatRegistry::localSnapshot();
    StatRegistry::setEnabled(false);

    EXPECT_EQ(after[flits_id], before[flits_id]);
    EXPECT_EQ(after[sat_id], before[sat_id]);
    EXPECT_TRUE(noc.linkStats().empty());
    EXPECT_EQ(noc.totalFlitHops(), flit_hops);
    for (TileId a = 0; a < mesh.numTiles(); a++) {
        for (TileId b = 0; b < mesh.numTiles(); b++) {
            EXPECT_EQ(noc.pathWait(a, b), 0.0);
            EXPECT_EQ(noc.latency(a, b, 5),
                      static_cast<double>(
                          mesh.latency(mesh.hops(a, b), 5)));
        }
        for (int c = 0; c < mesh.numMemCtrls(); c++) {
            EXPECT_EQ(noc.memPathWait(a, c), 0.0);
            EXPECT_EQ(noc.memResponsePathWait(c, a), 0.0);
            const auto zero_load = static_cast<double>(
                mesh.latency(mesh.hopsToCtrl(a, c), 5));
            EXPECT_EQ(noc.memLatency(a, c, 5), zero_load);
            EXPECT_EQ(noc.memResponseLatency(c, a, 5), zero_load);
            EXPECT_EQ(noc.farMemLatency(a, c, 5), zero_load);
            EXPECT_EQ(noc.farMemResponseLatency(c, a, 5), zero_load);
        }
    }
}

TEST(ContentionNocTest, ZeroTrafficMatchesZeroLoad)
{
    // An unloaded contention mesh, far links included, prices every
    // leg exactly like the zero-load model.
    const Mesh mesh(6, 6);
    const NocModel zero(mesh);
    NocModel cont(mesh, 1.0, 0.95, /*far_links=*/true);
    cont.epochUpdate(1e6);
    for (TileId a = 0; a < mesh.numTiles(); a++) {
        for (TileId b = 0; b < mesh.numTiles(); b++)
            EXPECT_EQ(cont.latency(a, b, 5), zero.latency(a, b, 5));
        for (int c = 0; c < mesh.numMemCtrls(); c++) {
            EXPECT_EQ(cont.memLatency(a, c, 1), zero.memLatency(a, c, 1));
            EXPECT_EQ(cont.memResponseLatency(c, a, 5),
                      zero.memResponseLatency(c, a, 5));
            EXPECT_EQ(cont.farMemLatency(a, c, 1),
                      zero.farMemLatency(a, c, 1));
            EXPECT_EQ(cont.farMemResponseLatency(c, a, 5),
                      zero.farMemResponseLatency(c, a, 5));
        }
    }
}

TEST(ContentionNocTest, MemLegIsRouteWaitPlusAttachWait)
{
    // Every memory leg is its X-Y mesh route plus one attach link:
    // the far link for a far leg when far links exist, else the near
    // one. Each latency must be the zero-load latency plus (route
    // walk + attach wait) for a request and (attach wait + route
    // walk) for a response, bit for bit, with the attach wait read
    // from the link's linkStats() entry.
    const Mesh mesh(6, 6);
    const int tiles = mesh.numTiles();
    const int ctrls = mesh.numMemCtrls();
    for (const bool far_links : {true, false}) {
        NocModel noc(mesh, 1.0, 0.95, far_links);
        Rng rng(4242);
        // Every controller gets the same legs: 2-flit near and
        // 1-flit far ones in each direction, so over `cycles` the
        // near attach links run at 0.5 and the far ones at 0.25.
        const int per_ctrl = 40 * tiles / ctrls;
        const double cycles = 8.0 * per_ctrl;
        for (int i = 0; i < per_ctrl * ctrls; i++) {
            const int c = i % ctrls;
            const auto a = static_cast<TileId>(rng.below(tiles));
            const auto b = static_cast<TileId>(rng.below(tiles));
            noc.addTraffic(TrafficClass::L2ToLLC, a, b, 1);
            noc.addMemTraffic(TrafficClass::LLCToMem, a, c, 2);
            noc.addMemResponse(TrafficClass::LLCToMem, c, b, 2);
            noc.addFarMemTraffic(TrafficClass::LLCToMem, b, c, 1);
            noc.addFarMemResponse(TrafficClass::LLCToMem, c, a, 1);
        }
        noc.epochUpdate(cycles);

        std::vector<double> near_wait(ctrls, -1.0);
        std::vector<double> far_wait(ctrls, -1.0);
        for (const NocLinkStat &link : noc.linkStats()) {
            if (link.memCtrl >= 0)
                (link.far ? far_wait : near_wait)[link.memCtrl] =
                    link.waitCycles;
        }
        for (int c = 0; c < ctrls; c++) {
            EXPECT_GT(near_wait[c], 0.0);
            if (far_links) {
                EXPECT_GT(far_wait[c], 0.0);
                EXPECT_NE(far_wait[c], near_wait[c]);
            } else {
                EXPECT_EQ(far_wait[c], -1.0); // No far link listed.
            }
        }

        for (TileId t = 0; t < tiles; t++) {
            for (int c = 0; c < ctrls; c++) {
                const TileId ct = mesh.memCtrlTile(c);
                const auto req = static_cast<double>(
                    mesh.latency(mesh.hopsToCtrl(t, c), 1));
                const auto resp = static_cast<double>(
                    mesh.latency(mesh.hopsToCtrl(t, c), 5));
                const double to_ctrl = noc.walkPathWait(t, ct);
                const double from_ctrl = noc.walkPathWait(ct, t);
                EXPECT_EQ(noc.memLatency(t, c, 1),
                          req + (to_ctrl + near_wait[c]));
                EXPECT_EQ(noc.memResponseLatency(c, t, 5),
                          resp + (near_wait[c] + from_ctrl));
                if (far_links) {
                    EXPECT_EQ(noc.farMemLatency(t, c, 1),
                              req + (to_ctrl + far_wait[c]));
                    EXPECT_EQ(noc.farMemResponseLatency(c, t, 5),
                              resp + (far_wait[c] + from_ctrl));
                } else {
                    EXPECT_EQ(noc.farMemLatency(t, c, 1),
                              noc.memLatency(t, c, 1));
                    EXPECT_EQ(noc.farMemResponseLatency(c, t, 5),
                              noc.memResponseLatency(c, t, 5));
                }
            }
        }
    }
}

TEST(ContentionNocTest, LinkAccountingConservesFlitHops)
{
    const Mesh mesh(6, 6);
    NocModel noc(mesh, 1.0, 0.95);
    Rng rng(123);
    for (int i = 0; i < 2000; i++) {
        const auto a = static_cast<TileId>(
            rng.next() % mesh.numTiles());
        const auto b = static_cast<TileId>(
            rng.next() % mesh.numTiles());
        const auto flits =
            static_cast<std::uint32_t>(1 + rng.next() % 5);
        if (i % 3 == 0) {
            const int ctrl = static_cast<int>(
                rng.next() % mesh.numMemCtrls());
            noc.addMemTraffic(TrafficClass::LLCToMem, a, ctrl,
                              flits);
        } else {
            noc.addTraffic(TrafficClass::L2ToLLC, a, b, flits);
        }
    }
    std::uint64_t link_sum = 0;
    for (const NocLinkStat &link : noc.linkStats())
        link_sum += link.flits;
    EXPECT_EQ(link_sum, noc.totalFlitHops());
}

TEST(ContentionNocTest, RequestAndResponseChargeOppositeLinks)
{
    // A request/response pair split into two directed calls loads
    // the forward and reverse links separately; the old single-call
    // accounting left reverse links idle and double-counted forward.
    const Mesh mesh(4, 4);
    NocModel noc(mesh, 1.0, 0.95);
    const TileId a = mesh.tileAt(0, 1);
    const TileId b = mesh.tileAt(3, 1);
    noc.addTraffic(TrafficClass::L2ToLLC, a, b, 1);  // Request.
    noc.addTraffic(TrafficClass::L2ToLLC, b, a, 5);  // Response.

    std::uint64_t east = 0, west = 0;
    for (const NocLinkStat &link : noc.linkStats()) {
        if (link.memCtrl >= 0 || link.flits == 0)
            continue;
        const MeshCoord s = mesh.coordOf(link.src);
        const MeshCoord d = mesh.coordOf(link.dst);
        if (d.x > s.x)
            east += link.flits;
        else if (d.x < s.x)
            west += link.flits;
    }
    EXPECT_EQ(east, 3u);  // 1 ctrl flit x 3 hops.
    EXPECT_EQ(west, 15u); // 5 data flits x 3 hops.
    // Per-class totals still see the symmetric sum.
    EXPECT_EQ(noc.trafficFlitHops(TrafficClass::L2ToLLC), 18u);
}

TEST(ContentionNocTest, MemResponseChargesReverseRouteAndAttach)
{
    const Mesh mesh(6, 6);
    NocModel noc(mesh, 1.0, 0.95);
    const int ctrl = 0;
    const TileId ctrl_tile = mesh.memCtrlTile(ctrl);
    const TileId far = mesh.tileAt(5, 5);
    noc.addMemTraffic(TrafficClass::LLCToMem, far, ctrl, 1);
    noc.addMemResponse(TrafficClass::LLCToMem, ctrl, far, 5);

    // Flit-hop totals are direction-symmetric.
    const auto hops =
        static_cast<std::uint64_t>(mesh.hopsToCtrl(far, ctrl));
    EXPECT_EQ(noc.trafficFlitHops(TrafficClass::LLCToMem),
              hops * 6);
    // The attach link carries both directions; mesh links split.
    std::uint64_t attach = 0, from_ctrl = 0, to_ctrl = 0;
    for (const NocLinkStat &link : noc.linkStats()) {
        if (link.memCtrl == ctrl)
            attach = link.flits;
        else if (link.src == ctrl_tile && link.flits > 0)
            from_ctrl += link.flits;
        else if (link.dst == ctrl_tile && link.flits > 0)
            to_ctrl += link.flits;
    }
    EXPECT_EQ(attach, 6u);
    EXPECT_EQ(from_ctrl, 5u); // First hop of the response route.
    EXPECT_EQ(to_ctrl, 1u);   // Last hop of the request route.
    // Conservation: per-direction link flits sum to flit-hops.
    std::uint64_t link_sum = 0;
    for (const NocLinkStat &link : noc.linkStats())
        link_sum += link.flits;
    EXPECT_EQ(link_sum, noc.totalFlitHops());
}

TEST(ContentionNocTest, ResponseLatencyReadsResponseDirectionWaits)
{
    // Load only the response direction of a memory route: the
    // response latency must see the wait, the request latency must
    // not (beyond the shared attach link).
    const Mesh mesh(6, 6);
    NocModel noc(mesh, 1.0, 0.95);
    const int ctrl = 0;
    const TileId ctrl_tile = mesh.memCtrlTile(ctrl);
    const TileId far = mesh.tileAt(5, 5);
    // Saturate the mesh route leaving the controller tile, not the
    // attach link.
    noc.addTraffic(TrafficClass::Other, ctrl_tile, far, 50000);
    noc.epochUpdate(10000.0);

    EXPECT_GT(noc.memResponsePathWait(ctrl, far), 0.0);
    EXPECT_EQ(noc.memPathWait(far, ctrl), 0.0);
    EXPECT_EQ(noc.memLatency(far, ctrl, 1),
              static_cast<double>(
                  mesh.latency(mesh.hopsToCtrl(far, ctrl), 1)));
    EXPECT_EQ(noc.memResponseLatency(ctrl, far, 5),
              static_cast<double>(
                  mesh.latency(mesh.hopsToCtrl(far, ctrl), 5)) +
                  noc.memResponsePathWait(ctrl, far));
}

TEST(ZeroLoadNocTest, MemResponseLatencyIsSymmetric)
{
    // Under zero load the response leg costs exactly the request
    // leg.
    const Mesh mesh(6, 6);
    const NocModel noc(mesh);
    for (TileId t = 0; t < mesh.numTiles(); t += 5) {
        for (int c = 0; c < mesh.numMemCtrls(); c++) {
            EXPECT_EQ(noc.memResponseLatency(c, t, 5),
                      noc.memLatency(t, c, 5));
        }
    }
}

TEST(ContentionNocTest, WaitMonotonicInLoad)
{
    const Mesh mesh(8, 8);
    const TileId src = mesh.tileAt(0, 3);
    const TileId dst = mesh.tileAt(7, 3);
    double prev = 0.0;
    for (std::uint32_t load : {0u, 100u, 1000u, 10000u, 100000u}) {
        NocModel noc(mesh, 1.0, 0.95);
        if (load > 0)
            noc.addTraffic(TrafficClass::L2ToLLC, src, dst, load);
        noc.epochUpdate(10000.0);
        const double lat = noc.latency(src, dst, 1);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
}

TEST(ContentionNocTest, WaitMonotonicInInjectionScale)
{
    const Mesh mesh(8, 8);
    const TileId src = mesh.tileAt(0, 0);
    const TileId dst = mesh.tileAt(7, 7);
    double prev = 0.0;
    for (double scale : {1.0, 2.0, 4.0, 8.0, 64.0}) {
        NocModel noc(mesh, scale, 0.95);
        noc.addTraffic(TrafficClass::L2ToLLC, src, dst, 500);
        noc.epochUpdate(10000.0);
        const double lat = noc.latency(src, dst, 5);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
}

TEST(ContentionNocTest, UtilizationClampBoundsTheWait)
{
    const Mesh mesh(4, 4);
    NocModel noc(mesh, 1.0, 0.9);
    const TileId src = mesh.tileAt(0, 0);
    const TileId dst = mesh.tileAt(1, 0);
    // Offered load far beyond link bandwidth.
    noc.addTraffic(TrafficClass::L2ToLLC, src, dst, 1000000);
    noc.epochUpdate(10.0);
    for (const NocLinkStat &link : noc.linkStats()) {
        EXPECT_LE(link.util, 0.9 + 1e-12);
        // M/D/1 at the clamp: S * rho / (2 (1 - rho)) = 4.5 cycles.
        EXPECT_LE(link.waitCycles, 4.5 + 1e-12);
    }
    EXPECT_LE(noc.latency(src, dst, 1) -
                  static_cast<double>(mesh.latency(1, 1)),
              4.5 + 1e-12);
}

TEST(ContentionNocTest, ClearTrafficKeepsTheContentionEstimate)
{
    const Mesh mesh(4, 4);
    NocModel noc(mesh, 1.0, 0.95);
    const TileId src = mesh.tileAt(0, 0);
    const TileId dst = mesh.tileAt(3, 0);
    noc.addTraffic(TrafficClass::L2ToLLC, src, dst, 5000);
    noc.epochUpdate(1000.0);
    const double loaded = noc.latency(src, dst, 1);
    EXPECT_GT(loaded,
              static_cast<double>(
                  mesh.latency(mesh.hops(src, dst), 1)));

    noc.clearTraffic();
    EXPECT_EQ(noc.totalFlitHops(), 0u);
    // Counters reset, wait table preserved (warmup boundary).
    EXPECT_DOUBLE_EQ(noc.latency(src, dst, 1), loaded);
    // The next epoch sees no traffic and relaxes back to zero-load.
    noc.epochUpdate(1000.0);
    EXPECT_DOUBLE_EQ(noc.latency(src, dst, 1),
                     static_cast<double>(
                         mesh.latency(mesh.hops(src, dst), 1)));
}

TEST(ZeroLoadNocTest, PathWaitQueriesAnswerZero)
{
    // The placement cost oracle's query: the zero-load model answers
    // 0 everywhere, which is what keeps the default runtime cost
    // model byte-identical to the legacy hop arithmetic.
    const Mesh mesh(6, 6);
    const NocModel noc(mesh);
    for (TileId a = 0; a < mesh.numTiles(); a++) {
        for (TileId b = 0; b < mesh.numTiles(); b++)
            EXPECT_EQ(noc.pathWait(a, b), 0.0);
        for (int c = 0; c < mesh.numMemCtrls(); c++)
            EXPECT_EQ(noc.memPathWait(a, c), 0.0);
    }
}

TEST(ContentionNocTest, LatencyDecomposesIntoZeroLoadPlusPathWait)
{
    // pathWait/memPathWait expose exactly the contention surcharge
    // the latency queries charge: latency == Mesh zero-load + wait.
    const Mesh mesh(6, 6);
    NocModel noc(mesh, 2.0, 0.95);
    Rng rng(99);
    for (int i = 0; i < 3000; i++) {
        const auto a = static_cast<TileId>(
            rng.next() % mesh.numTiles());
        const auto b = static_cast<TileId>(
            rng.next() % mesh.numTiles());
        if (i % 4 == 0) {
            noc.addMemTraffic(
                TrafficClass::LLCToMem, a,
                static_cast<int>(rng.next() % mesh.numMemCtrls()),
                5);
        } else {
            noc.addTraffic(TrafficClass::L2ToLLC, a, b, 5);
        }
    }
    noc.epochUpdate(5000.0);
    for (TileId a = 0; a < mesh.numTiles(); a += 2) {
        for (TileId b = 1; b < mesh.numTiles(); b += 3) {
            EXPECT_DOUBLE_EQ(
                noc.latency(a, b, 5),
                static_cast<double>(
                    mesh.latency(mesh.hops(a, b), 5)) +
                    noc.pathWait(a, b));
        }
        for (int c = 0; c < mesh.numMemCtrls(); c++) {
            EXPECT_DOUBLE_EQ(
                noc.memLatency(a, c, 5),
                static_cast<double>(
                    mesh.latency(mesh.hopsToCtrl(a, c), 5)) +
                    noc.memPathWait(a, c));
        }
    }
}

TEST(ContentionNocTest, FlattenedWaitsMatchRouteWalkBitForBit)
{
    // The flattened per-epoch table must reproduce the literal
    // link-by-link route walk bit-for-bit (EXPECT_EQ, not NEAR) on
    // randomized meshes under randomized traffic: any FP reassociation
    // in the flattening would silently shift every downstream study.
    Rng rng(2024);
    const int dims[][2] = {{2, 2}, {4, 4}, {6, 6}, {5, 3}, {3, 7}};
    for (const auto &dim : dims) {
        const Mesh mesh(dim[0], dim[1]);
        NocModel noc(mesh, 1.0, 0.95);
        const int tiles = mesh.numTiles();
        // Random traffic over all classes and both mem directions.
        for (int i = 0; i < 40 * tiles; i++) {
            const auto src =
                static_cast<TileId>(rng.below(tiles));
            const auto dst =
                static_cast<TileId>(rng.below(tiles));
            const auto flits =
                static_cast<std::uint32_t>(1 + rng.below(8));
            noc.addTraffic(TrafficClass::L2ToLLC, src, dst, flits);
            const int ctrl = static_cast<int>(
                rng.below(mesh.numMemCtrls()));
            noc.addMemTraffic(TrafficClass::LLCToMem, src, ctrl,
                              flits);
            noc.addMemResponse(TrafficClass::LLCToMem, ctrl, dst,
                               flits);
        }
        noc.epochUpdate(1000.0 + rng.uniform(0.0, 500.0));

        for (TileId a = 0; a < tiles; a++) {
            for (TileId b = 0; b < tiles; b++)
                EXPECT_EQ(noc.pathWait(a, b), noc.walkPathWait(a, b));
        }
        // Mem legs: the reference is the walk plus/then the attach
        // wait, in the leg's direction.
        for (int c = 0; c < mesh.numMemCtrls(); c++) {
            const TileId ct = mesh.memCtrlTile(c);
            // The attach wait is observable as the mem-path extra on
            // the controller's own tile (zero-length mesh route).
            const double attach = noc.memPathWait(ct, c);
            EXPECT_EQ(noc.walkPathWait(ct, ct), 0.0);
            for (TileId t = 0; t < tiles; t++) {
                EXPECT_EQ(noc.memPathWait(t, c),
                          noc.walkPathWait(t, ct) + attach);
                EXPECT_EQ(noc.memResponsePathWait(c, t),
                          attach + noc.walkPathWait(ct, t));
            }
        }
    }
}

TEST(ContentionNocTest, FlattenedWaitsTrackEveryEpochUpdate)
{
    // The table must refresh on every epochUpdate, including after
    // clearTraffic (which keeps the waits).
    const Mesh mesh(4, 4);
    NocModel noc(mesh, 1.0, 0.95);
    Rng rng(7);
    for (int epoch = 0; epoch < 4; epoch++) {
        for (int i = 0; i < 200; i++) {
            noc.addTraffic(
                TrafficClass::Other,
                static_cast<TileId>(rng.below(mesh.numTiles())),
                static_cast<TileId>(rng.below(mesh.numTiles())),
                1 + static_cast<std::uint32_t>(rng.below(4)));
        }
        noc.epochUpdate(500.0);
        if (epoch == 1)
            noc.clearTraffic();
        for (TileId a = 0; a < mesh.numTiles(); a++) {
            for (TileId b = 0; b < mesh.numTiles(); b++)
                EXPECT_EQ(noc.pathWait(a, b), noc.walkPathWait(a, b));
        }
    }
}

/**
 * Test-only reference for the contention model's per-link
 * accounting: every message is charged link by link along its X-Y
 * route when it is sent (the walk walkPathWait does for waits), and
 * each epoch close reprices every link with the model's M/D/1
 * expression. Links are keyed like NocLinkStat: (src, dst, memCtrl,
 * far).
 */
class WalkingNocReference
{
  public:
    struct Link
    {
        std::uint64_t flits = 0;
        std::uint64_t prev = 0; ///< flits at the last close.
        double util = 0.0;
        double wait = 0.0;
    };

    WalkingNocReference(const Mesh &mesh, double inj_scale,
                        double max_util, bool far_links)
        : mesh(mesh), injScale(inj_scale), maxUtil(max_util),
          farLinks(far_links)
    {
    }

    void
    msg(TileId src, TileId dst, std::uint32_t flits)
    {
        MeshCoord at = mesh.coordOf(src);
        const MeshCoord to = mesh.coordOf(dst);
        while (at.x != to.x || at.y != to.y) {
            MeshCoord next = at;
            if (at.x != to.x)
                next.x += to.x > at.x ? 1 : -1;
            else
                next.y += to.y > at.y ? 1 : -1;
            links[{mesh.tileAt(at.x, at.y), mesh.tileAt(next.x, next.y),
                   -1, false}]
                .flits += flits;
            at = next;
        }
    }

    void
    memMsg(TileId tile, int ctrl, bool far, std::uint32_t flits)
    {
        msg(tile, mesh.memCtrlTile(ctrl), flits);
        attach(ctrl, far, flits);
    }

    void
    memResponse(int ctrl, TileId tile, bool far, std::uint32_t flits)
    {
        attach(ctrl, far, flits);
        msg(mesh.memCtrlTile(ctrl), tile, flits);
    }

    /**
     * Close an epoch. @return the flits counted and the links at the
     * clamp, the `noc.link_flits`/`noc.saturated_links` increments.
     */
    std::pair<std::uint64_t, std::uint64_t>
    close(double elapsed_cycles, bool refresh)
    {
        const double cycles = std::max(elapsed_cycles, 1.0);
        const double service =
            static_cast<double>(mesh.config().linkCycles);
        std::uint64_t epoch_flits = 0;
        std::uint64_t saturated = 0;
        for (auto &[key, link] : links) {
            epoch_flits += link.flits - link.prev;
            const double delta =
                static_cast<double>(link.flits - link.prev);
            link.prev = link.flits;
            const double rho = std::min(
                maxUtil, injScale * (delta / cycles) * service);
            if (rho >= maxUtil)
                saturated++;
            if (refresh) {
                link.wait = service * rho / (2.0 * (1.0 - rho));
                link.util = rho;
            }
        }
        return {epoch_flits, saturated};
    }

    void
    clear()
    {
        for (auto &[key, link] : links)
            link.flits = link.prev = 0;
    }

    /** The reference state of a model link (all zero if untouched). */
    Link
    of(const NocLinkStat &stat) const
    {
        const auto it = links.find(
            {stat.src, stat.dst, stat.memCtrl, stat.far});
        return it == links.end() ? Link{} : it->second;
    }

    std::size_t
    linksWithFlits() const
    {
        return static_cast<std::size_t>(std::count_if(
            links.begin(), links.end(),
            [](const auto &kv) { return kv.second.flits > 0; }));
    }

  private:
    void
    attach(int ctrl, bool far, std::uint32_t flits)
    {
        // Without far links the far tier shares the near attach link.
        links[{mesh.memCtrlTile(ctrl), invalidTile, ctrl,
               far && farLinks}]
            .flits += flits;
    }

    const Mesh &mesh;
    double injScale;
    double maxUtil;
    bool farLinks;
    std::map<std::tuple<int, int, int, bool>, Link> links;
};

/** The same seeded message stream into the model and the reference. */
void
sendStream(Rng &rng, const Mesh &mesh, NocModel &noc,
           WalkingNocReference &ref, int messages)
{
    for (int i = 0; i < messages; i++) {
        const auto a = static_cast<TileId>(rng.below(mesh.numTiles()));
        const auto b = static_cast<TileId>(rng.below(mesh.numTiles()));
        const auto ctrl =
            static_cast<int>(rng.below(mesh.numMemCtrls()));
        const auto flits = static_cast<std::uint32_t>(1 + rng.below(5));
        switch (rng.below(5)) {
          case 0:
            noc.addTraffic(TrafficClass::L2ToLLC, a, b, flits);
            ref.msg(a, b, flits);
            break;
          case 1:
            noc.addMemTraffic(TrafficClass::LLCToMem, a, ctrl, flits);
            ref.memMsg(a, ctrl, false, flits);
            break;
          case 2:
            noc.addMemResponse(TrafficClass::LLCToMem, ctrl, a, flits);
            ref.memResponse(ctrl, a, false, flits);
            break;
          case 3:
            noc.addFarMemTraffic(TrafficClass::LLCToMem, a, ctrl,
                                 flits);
            ref.memMsg(a, ctrl, true, flits);
            break;
          default:
            noc.addFarMemResponse(TrafficClass::LLCToMem, ctrl, a,
                                  flits);
            ref.memResponse(ctrl, a, true, flits);
            break;
        }
    }
}

/** linkStats() agrees with the reference on every link. */
void
expectLinksMatch(const NocModel &noc,
                 const WalkingNocReference &ref, bool check_waits,
                 const std::string &point)
{
    std::size_t with_flits = 0;
    for (const NocLinkStat &stat : noc.linkStats()) {
        const WalkingNocReference::Link want = ref.of(stat);
        EXPECT_EQ(stat.flits, want.flits)
            << point << ": link " << stat.src << "->" << stat.dst
            << " ctrl " << stat.memCtrl << " far " << stat.far;
        if (check_waits) {
            EXPECT_EQ(stat.util, want.util) << point;
            EXPECT_EQ(stat.waitCycles, want.wait) << point;
        }
        with_flits += stat.flits > 0 ? 1 : 0;
    }
    // No reference link is missing from the model's snapshot.
    EXPECT_EQ(with_flits, ref.linksWithFlits()) << point;
}

TEST(ContentionNocTest, PairFoldMatchesPerMessageRouteWalk)
{
    // The model defers each message's route walk to the epoch close
    // (a pair-matrix fold). Against a reference that walks every
    // message as it is sent, every link count, utilization, wait and
    // `noc.*` stat increment must agree: mid-epoch with pairs pending
    // (linkStats folds a copy), at epochUpdate, at finalEpoch, and
    // across clearTraffic with pairs pending.
    const StatId flits_id = StatRegistry::counter("noc.link_flits");
    const StatId sat_id = StatRegistry::counter("noc.saturated_links");
    StatRegistry::setEnabled(true);
    Rng rng(31337);
    for (const int dim : {4, 8}) {
        for (const bool far_links : {false, true}) {
            const std::string where = std::to_string(dim) + "x" +
                std::to_string(dim) +
                (far_links ? " far links" : " no far links");
            const Mesh mesh(dim, dim);
            NocModel noc(mesh, 4.0, 0.95, far_links);
            WalkingNocReference ref(mesh, 4.0, 0.95, far_links);
            const int messages = 300 * mesh.numTiles();
            // About one message per cycle: the busiest links pass the
            // clamp, most stay below it.
            const auto cycles = static_cast<double>(messages);

            // Closes the epoch on both sides and compares the stat
            // increments and the links.
            const auto close = [&](bool refresh,
                                   const std::string &point) {
                const StatRegistry::Snapshot before =
                    StatRegistry::localSnapshot();
                if (refresh)
                    noc.epochUpdate(cycles);
                else
                    noc.finalEpoch(cycles);
                const StatRegistry::Snapshot after =
                    StatRegistry::localSnapshot();
                const auto [flits, saturated] =
                    ref.close(cycles, refresh);
                EXPECT_GT(flits, 0u) << point;
                EXPECT_EQ(after[flits_id] - before[flits_id], flits)
                    << point;
                EXPECT_EQ(after[sat_id] - before[sat_id], saturated)
                    << point;
                expectLinksMatch(noc, ref, true, point);
            };

            sendStream(rng, mesh, noc, ref, messages);
            expectLinksMatch(noc, ref, false, where + " mid-epoch");
            close(true, where + " epochUpdate");

            sendStream(rng, mesh, noc, ref, messages);
            close(false, where + " finalEpoch");

            // Pending pairs are traffic too: clearTraffic drops them.
            sendStream(rng, mesh, noc, ref, messages);
            noc.clearTraffic();
            ref.clear();
            expectLinksMatch(noc, ref, true, where + " clearTraffic");
            sendStream(rng, mesh, noc, ref, messages);
            close(true, where + " epochUpdate after clearTraffic");
        }
    }
    StatRegistry::setEnabled(false);
}

} // anonymous namespace
} // namespace cdcs
