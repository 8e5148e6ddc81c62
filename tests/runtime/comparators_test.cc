/**
 * @file
 * Tests for the Sec. VI-C comparators (simulated annealing, recursive
 * bisection) and the CDCS runtime orchestration, including the paper's
 * core quality claim: the cheap heuristics are within a few percent of
 * expensive search.
 */

#include <gtest/gtest.h>

#include "runtime/anneal.hh"
#include "runtime/bisect.hh"
#include "runtime/refined_placer.hh"
#include "sim/system_config.hh"

namespace cdcs
{
namespace
{

constexpr double tileCap = 8192.0;

/** Synthetic runtime input: `n` threads with private cliff VCs. */
RuntimeInput
makeInput(const Mesh &mesh, int threads, double footprint_lines,
          double apki_scale = 1.0)
{
    RuntimeInput in;
    in.mesh = &mesh;
    in.numBanks = mesh.numTiles();
    in.banksPerTile = 1;
    in.bankLines = static_cast<std::uint64_t>(tileCap);
    in.allocGranule = 64;
    const int num_vcs = threads + 2; // privates + process + global.
    for (int d = 0; d < num_vcs; d++) {
        Curve miss;
        if (d < threads) {
            miss.addPoint(0.0, 50000.0 * apki_scale);
            miss.addPoint(footprint_lines * 0.95,
                          45000.0 * apki_scale);
            miss.addPoint(footprint_lines, 500.0 * apki_scale);
            miss.addPoint(footprint_lines * 8, 400.0 * apki_scale);
        } else {
            miss.addPoint(0.0, 100.0);
            miss.addPoint(footprint_lines * 8, 100.0);
        }
        in.missCurves.push_back(miss);
    }
    for (int t = 0; t < threads; t++) {
        std::vector<double> row(num_vcs, 0.0);
        row[t] = 60000.0 * apki_scale;
        row[num_vcs - 2] = 10.0;
        row[num_vcs - 1] = 5.0;
        in.access.push_back(row);
        in.threadCore.push_back(static_cast<TileId>(t)); // Clustered.
    }
    return in;
}

double
totalCost(const RuntimeOutput &out, const RuntimeInput &in)
{
    std::vector<double> sizes(out.alloc.size(), 0.0);
    for (std::size_t d = 0; d < out.alloc.size(); d++) {
        for (double a : out.alloc[d])
            sizes[d] += a;
    }
    return onChipCost(out.alloc, sizes, in.access, out.threadCore,
                      *in.mesh);
}

TEST(CdcsRuntimeTest, ProducesValidAllocation)
{
    Mesh mesh(6, 6);
    RuntimeInput in = makeInput(mesh, 8, 3 * tileCap);
    CdcsRuntime runtime;
    const RuntimeOutput out = runtime.reconfigure(in);
    ASSERT_EQ(out.alloc.size(), in.missCurves.size());
    std::vector<double> tile_use(mesh.numTiles(), 0.0);
    for (const auto &row : out.alloc) {
        for (std::size_t b = 0; b < row.size(); b++) {
            EXPECT_GE(row[b], 0.0);
            tile_use[b] += row[b];
        }
    }
    for (double use : tile_use)
        EXPECT_LE(use, tileCap + 1e-6);
    // Cliff VCs should receive their working sets.
    for (int t = 0; t < 8; t++) {
        double size = 0.0;
        for (double a : out.alloc[t])
            size += a;
        EXPECT_GT(size, 2.5 * tileCap);
    }
}

TEST(CdcsRuntimeTest, SpreadsClusteredThreads)
{
    // 8 capacity-hungry threads clustered in a corner: CDCS should
    // spread them out (Sec. II-B case study).
    Mesh mesh(6, 6);
    RuntimeInput in = makeInput(mesh, 8, 3 * tileCap);
    CdcsRuntime runtime;
    const RuntimeOutput out = runtime.reconfigure(in);
    double pairwise = 0.0;
    int pairs = 0;
    for (int a = 0; a < 8; a++) {
        for (int b = a + 1; b < 8; b++) {
            pairwise += mesh.hops(out.threadCore[a], out.threadCore[b]);
            pairs++;
        }
    }
    double before = 0.0;
    for (int a = 0; a < 8; a++) {
        for (int b = a + 1; b < 8; b++)
            before += mesh.hops(in.threadCore[a], in.threadCore[b]);
    }
    EXPECT_GT(pairwise / pairs, before / pairs);
}

TEST(CdcsRuntimeTest, BeatsJigsawOnContendedInput)
{
    Mesh mesh(6, 6);
    RuntimeInput in = makeInput(mesh, 8, 3 * tileCap);
    CdcsRuntime cdcs_rt;
    CdcsRuntime jigsaw_rt(
        SchemeSpec::jigsaw(InitialSched::Random).cdcsOpts);
    const RuntimeOutput cdcs_out = cdcs_rt.reconfigure(in);
    const RuntimeOutput jigsaw_out = jigsaw_rt.reconfigure(in);
    EXPECT_LT(totalCost(cdcs_out, in), totalCost(jigsaw_out, in));
    // Jigsaw never moves threads.
    EXPECT_EQ(jigsaw_out.threadCore, in.threadCore);
}

TEST(CdcsRuntimeTest, ReportsStepTimes)
{
    Mesh mesh(6, 6);
    RuntimeInput in = makeInput(mesh, 8, 2 * tileCap);
    CdcsRuntime runtime;
    const RuntimeOutput out = runtime.reconfigure(in);
    EXPECT_GT(out.times.allocUs, 0.0);
    EXPECT_GT(out.times.threadPlaceUs, 0.0);
    EXPECT_GT(out.times.dataPlaceUs, 0.0);
}

TEST(AnnealTest, ThreadAnnealingNeverWorsens)
{
    Mesh mesh(6, 6);
    RuntimeInput in = makeInput(mesh, 8, 3 * tileCap);
    CdcsRuntime runtime;
    const RuntimeOutput out = runtime.reconfigure(in);

    std::vector<double> sizes(out.alloc.size(), 0.0);
    for (std::size_t d = 0; d < out.alloc.size(); d++) {
        for (double a : out.alloc[d])
            sizes[d] += a;
    }
    const double before = onChipCost(out.alloc, sizes, in.access,
                                     out.threadCore, mesh);
    Rng rng(3);
    const auto annealed =
        annealThreads(out.alloc, sizes, in.access, out.threadCore,
                      mesh, 3000, rng);
    const double after =
        onChipCost(out.alloc, sizes, in.access, annealed, mesh);
    // SA is a comparator: it should be at most marginally better
    // than the heuristic (the paper reports ~0.6%); in particular it
    // must not find dramatic wins.
    EXPECT_LE(after, before * 1.001 + 1e-6);
    EXPECT_GT(after, before * 0.80);
}

TEST(AnnealTest, AnnealingRuntimeCloseToHeuristic)
{
    Mesh mesh(6, 6);
    RuntimeInput in = makeInput(mesh, 12, 2 * tileCap);
    CdcsRuntime heuristic;
    AnnealingRuntime annealed(CdcsOptions{}, 2000, 99);
    const double h = totalCost(heuristic.reconfigure(in), in);
    const double a = totalCost(annealed.reconfigure(in), in);
    // Within a few percent of each other (Sec. VI-C).
    EXPECT_NEAR(a / h, 1.0, 0.15);
}

TEST(BisectTest, ProducesValidPlacement)
{
    Mesh mesh(6, 6);
    RuntimeInput in = makeInput(mesh, 8, 2 * tileCap);
    BisectRuntime runtime;
    const RuntimeOutput out = runtime.reconfigure(in);
    // Threads on distinct cores.
    std::vector<bool> used(mesh.numTiles(), false);
    for (TileId c : out.threadCore) {
        EXPECT_LT(c, mesh.numTiles());
        EXPECT_FALSE(used[c]);
        used[c] = true;
    }
    // Capacity within tile bounds.
    std::vector<double> tile_use(mesh.numTiles(), 0.0);
    for (const auto &row : out.alloc) {
        for (std::size_t b = 0; b < row.size(); b++)
            tile_use[b] += row[b];
    }
    for (double use : tile_use)
        EXPECT_LE(use, tileCap + 1.0);
}

TEST(BisectTest, CdcsAtLeastMatchesBisection)
{
    // The paper: graph partitioning does not outperform CDCS.
    Mesh mesh(6, 6);
    RuntimeInput in = makeInput(mesh, 10, 2.5 * tileCap);
    CdcsRuntime cdcs_rt;
    BisectRuntime bisect_rt;
    const double c = totalCost(cdcs_rt.reconfigure(in), in);
    const double b = totalCost(bisect_rt.reconfigure(in), in);
    EXPECT_LE(c, b * 1.05);
}

} // anonymous namespace
} // namespace cdcs
