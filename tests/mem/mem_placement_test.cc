/**
 * @file
 * Tests for the pluggable memory placement layer: interleave parity
 * with the legacy page hash, the M/D/m memory queue's monotonicity
 * in the channel count, and the contention policy steering hot pages
 * off a saturated controller.
 */

#include <gtest/gtest.h>

#include <limits>

#include "mem/mem_placement.hh"
#include "mem/mem_queue.hh"
#include "net/noc_model.hh"
#include "sim/experiment.hh"

namespace cdcs
{
namespace
{

TEST(MemPlacementTest, InterleaveMatchesLegacyPageHash)
{
    const Mesh mesh(8, 8);
    InterleaveMemPlacement policy(mesh);
    for (LineAddr line = 0; line < 100000; line += 977)
        EXPECT_EQ(policy.controllerFor(0, line), mesh.memCtrlOf(line));
}

TEST(MemPlacementTest, FirstTouchPinsToFirstToucherNearestCtrl)
{
    const Mesh mesh(8, 8);
    FirstTouchMemPlacement policy(mesh);
    const TileId near_corner = mesh.tileAt(0, 0);
    const TileId far_corner = mesh.tileAt(7, 7);
    const LineAddr line = 0x1234 << pageLineShift;
    const int first = policy.controllerFor(near_corner, line);
    EXPECT_EQ(first, mesh.nearestMemCtrl(near_corner));
    // Later touches from elsewhere (even other lines of the page)
    // keep the pin.
    EXPECT_EQ(policy.controllerFor(far_corner, line + 3), first);
}

TEST(MemQueueTest, MatchesMd1AtOneChannel)
{
    // m = 1 must be the exact M/D/1 wait s * rho / (2 (1 - rho)).
    for (double rho : {0.1, 0.5, 0.9}) {
        const double s = 1.0 / 0.8;
        EXPECT_NEAR(memQueueWait(rho, 1, 0.8),
                    s * rho / (2.0 * (1.0 - rho)), 1e-12);
    }
}

TEST(MemQueueTest, WaitNonIncreasingInChannelCount)
{
    // At a fixed aggregate service rate, adding channels must never
    // inflate the queueing delay (the bug this model replaced scaled
    // the wait linearly with the channel count).
    for (double rho : {0.05, 0.3, 0.6, 0.95}) {
        double prev = memQueueWait(rho, 1, 0.8);
        for (int m : {2, 4, 8, 16, 64}) {
            const double wait = memQueueWait(rho, m, 0.8);
            EXPECT_LE(wait, prev + 1e-12) << "rho " << rho << " m "
                                          << m;
            prev = wait;
        }
    }
}

TEST(MemQueueTest, WaitMonotoneInLoad)
{
    for (int m : {1, 8}) {
        double prev = 0.0;
        for (double rho = 0.0; rho < 0.96; rho += 0.05) {
            const double wait = memQueueWait(rho, m, 0.8);
            EXPECT_GE(wait, prev);
            prev = wait;
        }
    }
}

TEST(MemQueueTest, QueueContributionNonIncreasingInChannels)
{
    // End to end: at a fixed aggregate rate, a run with more memory
    // channels must not pay a larger queueing delay. memChannels
    // also sets the controller count (routes change), so isolate the
    // queue's contribution as the off-chip latency delta between a
    // bandwidth-modeled run and the same run with the queue off.
    SystemConfig base;
    base.meshWidth = 6;
    base.meshHeight = 6;
    base.accessesPerThreadEpoch = 5000;
    base.epochs = 3;
    base.warmupEpochs = 1;
    const MixSpec mix = MixSpec::cpu(8, 11);
    double prev = std::numeric_limits<double>::max();
    for (int channels : {4, 8, 16}) {
        SystemConfig on = base;
        on.memChannels = channels;
        SystemConfig off = on;
        off.modelMemBandwidth = false;
        const RunResult with_queue =
            runScheme(on, SchemeSpec::snuca(), mix);
        const RunResult no_queue =
            runScheme(off, SchemeSpec::snuca(), mix);
        EXPECT_EQ(with_queue.memAccesses, no_queue.memAccesses);
        const double queued =
            with_queue.offChipLatSum - no_queue.offChipLatSum;
        EXPECT_GE(queued, 0.0) << channels;
        EXPECT_LE(queued, prev) << channels;
        prev = queued;
    }
}

TEST(ContentionMemPlacementTest, QuietRunBehavesLikeFirstTouch)
{
    // With balanced controller loads (no controller past the
    // overload threshold) the contention policy never migrates, so
    // it is exactly first-touch.
    const Mesh mesh(8, 8);
    ContentionMemPlacementParams params;
    ContentionMemPlacement policy(mesh, params);
    FirstTouchMemPlacement reference(mesh);
    for (TileId core = 0; core < mesh.numTiles(); core++) {
        const LineAddr line = static_cast<LineAddr>(core)
            << pageLineShift;
        EXPECT_EQ(policy.controllerFor(core, line),
                  reference.controllerFor(core, line));
    }
    NocModel noc(mesh, 1.0, 0.95);
    noc.epochUpdate(10000.0);
    policy.epochUpdate(noc, 10000.0);
    EXPECT_EQ(policy.migratedPages(), 0u);
}

TEST(ContentionMemPlacementTest, SteersPagesOffSaturatedController)
{
    // All threads cluster in the top-left corner: first-touch pins
    // every page to the corner's nearest controller. Saturate that
    // controller's attach link; the rebalance must re-pin hot pages
    // to other controllers and say so in the accounting.
    const Mesh mesh(8, 8);
    ContentionMemPlacementParams params;
    params.hopCycles = 4.0;
    ContentionMemPlacement policy(mesh, params);
    NocModel noc(mesh, 1.0, 0.95);

    const TileId corner = mesh.tileAt(0, 0);
    const int hot_ctrl = mesh.nearestMemCtrl(corner);
    const std::uint32_t pages = 64;
    const auto touch = [&] {
        for (std::uint32_t p = 0; p < pages; p++) {
            const LineAddr line = static_cast<LineAddr>(p)
                << pageLineShift;
            const int ctrl = policy.controllerFor(corner, line);
            // Model the access's attach traffic so the NoC measures
            // the load the policy causes.
            noc.addMemTraffic(TrafficClass::LLCToMem,
                              corner, ctrl, 6 * 40);
        }
    };

    touch();
    for (std::uint32_t p = 0; p < pages; p++) {
        EXPECT_EQ(policy.controllerFor(
                      corner, static_cast<LineAddr>(p)
                          << pageLineShift),
                  hot_ctrl);
    }

    // Several epochs of saturated load on the pinned controller.
    std::uint64_t migrated = 0;
    for (int epoch = 0; epoch < 4; epoch++) {
        touch();
        noc.epochUpdate(2000.0);
        policy.epochUpdate(noc, 2000.0);
        migrated = policy.migratedPages();
    }
    EXPECT_GT(migrated, 0u);

    // The hot controller kept some pages but lost hot ones; every
    // migrated page must live on a different controller now.
    std::vector<std::uint64_t> loads(
        static_cast<std::size_t>(mesh.numMemCtrls()), 0);
    std::uint64_t off_hot = 0;
    for (std::uint32_t p = 0; p < pages; p++) {
        const int ctrl = policy.controllerFor(
            corner, static_cast<LineAddr>(p) << pageLineShift);
        off_hot += ctrl != hot_ctrl ? 1 : 0;
        loads.at(static_cast<std::size_t>(ctrl))++;
    }
    EXPECT_GT(off_hot, 0u);
    EXPECT_LT(off_hot, pages); // Not a stampede either.
    EXPECT_EQ(loads[static_cast<std::size_t>(hot_ctrl)], pages - off_hot);
}

TEST(ContentionMemPlacementTest, RelievesMemRouteWaitAtScale)
{
    // The mem_placement study's acceptance shape, at the study's
    // default run length: under a contended mesh at x4 injection the
    // contention policy migrates hot pages and pulls the
    // flit-weighted mean mem-route (attach-link) wait below
    // first-touch, without hurting throughput.
    SystemConfig cfg;
    cfg.accessesPerThreadEpoch = 40000;
    cfg.epochs = 8;
    cfg.warmupEpochs = 4;
    cfg.nocModel = "contention";
    cfg.nocInjScale = 4.0;
    const MixSpec mix = MixSpec::cpu(64, 11000);

    const auto mem_wait = [](const RunResult &run) {
        double wait_flits = 0.0, flits = 0.0;
        for (const NocLinkStat &link : run.nocLinks) {
            if (link.memCtrl < 0)
                continue;
            wait_flits +=
                link.waitCycles * static_cast<double>(link.flits);
            flits += static_cast<double>(link.flits);
        }
        return flits > 0.0 ? wait_flits / flits : 0.0;
    };
    const auto throughput = [](const RunResult &run) {
        double sum = 0.0;
        for (double t : run.procThroughput)
            sum += t;
        return sum;
    };

    SystemConfig ft = cfg;
    ft.memPlacement = "first-touch";
    SystemConfig ct = cfg;
    ct.memPlacement = "contention";
    const RunResult first_touch =
        runScheme(ft, SchemeSpec::jigsaw(InitialSched::Random), mix);
    const RunResult contention =
        runScheme(ct, SchemeSpec::jigsaw(InitialSched::Random), mix);

    EXPECT_EQ(first_touch.memMigratedPages, 0u);
    EXPECT_GT(contention.memMigratedPages, 0u);
    EXPECT_GT(mem_wait(first_touch), 0.0);
    EXPECT_LT(mem_wait(contention), mem_wait(first_touch) * 0.999);
    EXPECT_GE(throughput(contention),
              throughput(first_touch) * 0.995);
}

TEST(ContentionMemPlacementTest, RebalanceIsDeterministic)
{
    // Two identical policy+noc histories produce identical page
    // maps (the study's worker-count determinism rests on this).
    const Mesh mesh(6, 6);
    const auto run_history = [&mesh] {
        ContentionMemPlacement policy(
            mesh, ContentionMemPlacementParams{});
        NocModel noc(mesh, 4.0, 0.95);
        std::vector<int> map;
        for (int epoch = 0; epoch < 3; epoch++) {
            for (std::uint32_t p = 0; p < 40; p++) {
                const TileId core =
                    static_cast<TileId>((p * 7) % 4);
                const LineAddr line = static_cast<LineAddr>(p)
                    << pageLineShift;
                const int ctrl = policy.controllerFor(core, line);
                noc.addMemTraffic(TrafficClass::LLCToMem, core,
                                  ctrl, 200);
            }
            noc.epochUpdate(1000.0);
            policy.epochUpdate(noc, 1000.0);
        }
        for (std::uint32_t p = 0; p < 40; p++) {
            map.push_back(policy.controllerFor(
                static_cast<TileId>((p * 7) % 4),
                static_cast<LineAddr>(p) << pageLineShift));
        }
        return map;
    };
    EXPECT_EQ(run_history(), run_history());
}

} // anonymous namespace
} // namespace cdcs
