/**
 * @file
 * Tests for the far-memory tiering layer: override validation,
 * legacy placement bit-identity through the two-level
 * placementFor, the no-far-tier off state matching the
 * default run byte-for-byte, the DRAM-row migration throttle, the
 * hotness policy's hysteresis/cooldown/budget determinism, per-tier
 * M/D/m queue isolation, serial-vs-parallel sweep identity for a
 * tiering configuration, and first-touch-order independence of the
 * page-table-driven epoch decisions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/mem_migration.hh"
#include "mem/mem_placement.hh"
#include "mem/mem_tiering.hh"
#include "net/noc_model.hh"
#include "sim/experiment.hh"
#include "sim/experiment_runner.hh"
#include "sim/overrides.hh"

namespace cdcs
{
namespace
{

TEST(MemTieringOverridesTest, ValidatesTierKnobs)
{
    Overrides ov;
    std::string err;
    EXPECT_TRUE(ov.add("farMemRatio=0.5", &err)) << err;
    EXPECT_TRUE(ov.add("memTiering=hotness", &err)) << err;
    EXPECT_TRUE(ov.add("farMemLatency=500", &err)) << err;
    EXPECT_TRUE(ov.add("farMemChannels=2", &err)) << err;
    EXPECT_TRUE(ov.add("farMemLinesPerCycle=0.1", &err)) << err;

    // farMemRatio must stay in [0, 1): 1.0 would leave no near tier.
    EXPECT_FALSE(ov.add("farMemRatio=1.0", &err));
    EXPECT_FALSE(ov.add("farMemRatio=-0.1", &err));
    EXPECT_FALSE(ov.add("farMemLinesPerCycle=0", &err));
    EXPECT_FALSE(ov.add("farMemChannels=0", &err));

    // An unknown tiering policy is rejected with the choices listed.
    EXPECT_FALSE(ov.add("memTiering=no-such-policy", &err));
    EXPECT_NE(err.find("no-such-policy"), std::string::npos);
    EXPECT_NE(err.find("hotness"), std::string::npos);

    SystemConfig cfg;
    ov.apply(cfg);
    EXPECT_EQ(cfg.farMemRatio, 0.5);
    EXPECT_EQ(cfg.memTiering, "hotness");
    EXPECT_EQ(cfg.farMemLatency, 500u);
    EXPECT_TRUE(cfg.hasFarTier());
}

TEST(MemTieringTest, LegacyPoliciesPinNearWithoutTiering)
{
    // With no tiering policy attached (the no-far-tier state), the
    // two-level placementFor must be the controller decision alone:
    // same controller as controllerFor, tier pinned to Near.
    const Mesh mesh(8, 8);
    std::vector<std::unique_ptr<MemPlacementPolicy>> policies;
    policies.push_back(std::make_unique<InterleaveMemPlacement>(mesh));
    policies.push_back(std::make_unique<FirstTouchMemPlacement>(mesh));
    policies.push_back(std::make_unique<ContentionMemPlacement>(
        mesh, ContentionMemPlacementParams{}));
    for (const auto &policy : policies) {
        ASSERT_EQ(policy->tieringPolicy(), nullptr);
        for (LineAddr line = 0; line < 200000; line += 1009) {
            const TileId core =
                static_cast<TileId>(line % mesh.numTiles());
            const MemPlacement mp = policy->placementFor(core, line);
            EXPECT_EQ(mp.ctrl, policy->controllerFor(core, line));
            EXPECT_EQ(mp.tier, MemTier::Near);
        }
    }
}

TEST(MemTieringTest, StaticSplitTracksConfiguredRatio)
{
    const Mesh mesh(4, 4);
    MemTieringParams params;
    params.farRatio = 0.25;
    StaticTieringPolicy policy(mesh, params);
    const std::uint64_t total = 20000;
    std::uint64_t far = 0;
    for (std::uint64_t p = 0; p < total; p++) {
        const LineAddr line = static_cast<LineAddr>(p)
            << pageLineShift;
        far += policy.onAccess(line, 0) == MemTier::Far ? 1 : 0;
    }
    EXPECT_EQ(policy.trackedPages(), total);
    EXPECT_EQ(policy.farResidentPages(), far);
    const double share = static_cast<double>(far) / total;
    EXPECT_NEAR(share, params.farRatio, 0.02);

    // Residency is a pure page property: re-touching never moves it.
    StaticTieringPolicy again(mesh, params);
    for (std::uint64_t p = 0; p < 100; p++) {
        const LineAddr line = static_cast<LineAddr>(p)
            << pageLineShift;
        EXPECT_EQ(policy.onAccess(line, 1), again.onAccess(line, 2));
    }
    EXPECT_EQ(policy.migratedPages(), 0u);
}

TEST(RowBudgetSelectTest, SpendsBudgetInWholeRows)
{
    // Rows (shift 2): {0,1} -> row 0, {4,6} -> row 1, {8} -> row 2.
    const std::vector<std::uint64_t> pages = {0, 4, 8, 1, 6};
    const std::vector<double> weights = {1.0, 5.0, 3.0, 2.0, 5.0};
    // Row weights: row 0 = 3, row 1 = 10, row 2 = 3; budget 2 keeps
    // rows 1 and 0 (the row-id tiebreak drops row 2) whole, members
    // in candidate order within each row.
    const auto kept = rowBudgetSelect(pages, weights, 2);
    ASSERT_EQ(kept.size(), 4u);
    EXPECT_EQ(kept[0], 1u); // page 4 (row 1)
    EXPECT_EQ(kept[1], 4u); // page 6 (row 1)
    EXPECT_EQ(kept[2], 0u); // page 0 (row 0, id-tiebreak over row 2)
    EXPECT_EQ(kept[3], 3u); // page 1 (row 0)

    // A large budget keeps everything; a zero/negative one, nothing.
    EXPECT_EQ(rowBudgetSelect(pages, weights, 100).size(), 5u);
    EXPECT_TRUE(rowBudgetSelect(pages, weights, 0).empty());
    EXPECT_TRUE(rowBudgetSelect(pages, weights, -3).empty());
}

/**
 * Reference: the first-seen grouping rowBudgetSelect used before it
 * sorted by row (a linear scan of the rows found so far per
 * candidate).
 */
std::vector<std::size_t>
rowBudgetSelectScan(const std::vector<std::uint64_t> &pages,
                    const std::vector<double> &weights, int row_budget)
{
    struct Row
    {
        std::uint64_t id = 0;
        double weight = 0.0;
        std::vector<std::size_t> members;
    };
    std::vector<Row> rows;
    for (std::size_t i = 0; i < pages.size(); i++) {
        const std::uint64_t row_id = dramRowOf(pages[i]);
        Row *row = nullptr;
        for (Row &r : rows) {
            if (r.id == row_id) {
                row = &r;
                break;
            }
        }
        if (row == nullptr) {
            rows.push_back(Row{row_id, 0.0, {}});
            row = &rows.back();
        }
        row->weight += weights[i];
        row->members.push_back(i);
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) {
                  if (a.weight != b.weight)
                      return a.weight > b.weight;
                  return a.id < b.id;
              });
    if (rows.size() > static_cast<std::size_t>(
                          row_budget < 0 ? 0 : row_budget))
        rows.resize(static_cast<std::size_t>(
            row_budget < 0 ? 0 : row_budget));
    std::vector<std::size_t> kept;
    for (const Row &row : rows)
        kept.insert(kept.end(), row.members.begin(), row.members.end());
    return kept;
}

TEST(RowBudgetSelectTest, MatchesFirstSeenScan)
{
    // A few thousand candidates over a few hundred rows, so rows and
    // pages repeat. On the first pass every weight is one of a few
    // values, so many row sums tie; on the second, half are
    // fractional, whose sum depends on the adding order. Each pass
    // also runs negated, as the demotion side passes its weights.
    for (const double tied_share : {1.0, 0.5}) {
        const std::uint64_t seed = tied_share < 1.0 ? 2 : 1;
        Rng rng(seed);
        std::vector<std::uint64_t> pages;
        std::vector<double> weights;
        const double tied[] = {1.0, 2.0, 4.0, 0.5};
        for (int i = 0; i < 3000; i++) {
            pages.push_back((rng.below(300) << dramRowShift) |
                            rng.below(1u << dramRowShift));
            weights.push_back(rng.chance(tied_share)
                                  ? tied[rng.below(4)]
                                  : rng.uniform() * 10.0);
        }
        std::vector<double> negated;
        for (const double w : weights)
            negated.push_back(-w);
        for (const int budget : {-1, 0, 1, 7, 64, 299, 300, 5000}) {
            EXPECT_EQ(rowBudgetSelect(pages, weights, budget),
                      rowBudgetSelectScan(pages, weights, budget))
                << "seed " << seed << " budget " << budget;
            EXPECT_EQ(rowBudgetSelect(pages, negated, budget),
                      rowBudgetSelectScan(pages, negated, budget))
                << "seed " << seed << " budget " << budget
                << " (negated)";
        }
    }
}

/** Touch page `p` through the policy `n` times from controller 0. */
void
touch(MemTieringPolicy &policy, std::uint64_t page, int n)
{
    for (int i = 0; i < n; i++)
        policy.onAccess(static_cast<LineAddr>(page) << pageLineShift,
                        0);
}

/** First `count` pages (by id) the split seeds into `tier`. */
std::vector<std::uint64_t>
seededPages(const Mesh &mesh, const MemTieringParams &params,
            MemTier tier, std::size_t count)
{
    StaticTieringPolicy probe(mesh, params);
    std::vector<std::uint64_t> out;
    for (std::uint64_t p = 0; out.size() < count && p < 100000; p++) {
        const MemTier got = probe.onAccess(
            static_cast<LineAddr>(p) << pageLineShift, 0);
        if (got == tier)
            out.push_back(p);
    }
    return out;
}

TEST(HotnessTieringTest, PromotesHotFarPagesUnderMarginAndBudget)
{
    const Mesh mesh(4, 4);
    MemTieringParams params;
    params.farRatio = 0.5;
    params.promoteMargin = 2.0;
    params.cooldownEpochs = 1;
    params.rowBudget = 1;
    HotnessTieringPolicy policy(mesh, params);
    NocModel noc(mesh, 1.0, 0.95, /*far_links=*/true);

    const auto far_seed = seededPages(mesh, params, MemTier::Far, 8);
    const auto near_seed =
        seededPages(mesh, params, MemTier::Near, 8);
    ASSERT_EQ(far_seed.size(), 8u);
    ASSERT_EQ(near_seed.size(), 8u);

    // Hot far pages, cold (but tracked) near pages — touched in two
    // consecutive epochs so the far pages pass the reuse filter.
    for (int epoch = 0; epoch < 2; epoch++) {
        for (std::uint64_t p : far_seed)
            touch(policy, p, 20);
        for (std::uint64_t p : near_seed)
            touch(policy, p, 1);
        policy.epochUpdate(noc, 1000.0);
    }

    // 20 > 2.0 * 1 clears the margin, so promotions happen — but the
    // one-row budget bounds each direction at one DRAM row's worth of
    // pages (4 with dramRowShift = 2).
    EXPECT_GT(policy.promotions(), 0u);
    EXPECT_EQ(policy.promotions(), policy.demotions());
    EXPECT_LE(policy.promotions(), std::uint64_t{1} << dramRowShift);
    EXPECT_EQ(policy.migratedPages(),
              policy.promotions() + policy.demotions());
    // 1:1 swaps hold the far-resident count at the seeded split.
    EXPECT_EQ(policy.farResidentPages(), far_seed.size());
}

TEST(HotnessTieringTest, MarginBlocksNoiseLevelPromotions)
{
    const Mesh mesh(4, 4);
    MemTieringParams params;
    params.farRatio = 0.5;
    params.promoteMargin = 2.0;
    HotnessTieringPolicy policy(mesh, params);
    NocModel noc(mesh, 1.0, 0.95, /*far_links=*/true);

    // Far pages only modestly hotter than the near ones: 10 accesses
    // vs 8 does not clear the 2x hysteresis margin, so nothing moves
    // even though the far pages pass the reuse filter (two touched
    // epochs).
    for (int epoch = 0; epoch < 2; epoch++) {
        for (std::uint64_t p :
             seededPages(mesh, params, MemTier::Far, 4))
            touch(policy, p, 10);
        for (std::uint64_t p :
             seededPages(mesh, params, MemTier::Near, 4))
            touch(policy, p, 8);
        policy.epochUpdate(noc, 1000.0);
    }
    EXPECT_EQ(policy.migratedPages(), 0u);
}

TEST(HotnessTieringTest, CooldownStopsPingPong)
{
    const Mesh mesh(4, 4);
    MemTieringParams params;
    params.farRatio = 0.5;
    params.promoteMargin = 2.0;
    params.cooldownEpochs = 2;
    params.rowBudget = 8;
    HotnessTieringPolicy policy(mesh, params);
    NocModel noc(mesh, 1.0, 0.95, /*far_links=*/true);

    const auto far_seed = seededPages(mesh, params, MemTier::Far, 2);
    const auto near_seed =
        seededPages(mesh, params, MemTier::Near, 2);
    // Two hot epochs: the far pages pass the reuse filter on the
    // second update and get promoted.
    for (int epoch = 0; epoch < 2; epoch++) {
        for (std::uint64_t p : far_seed)
            touch(policy, p, 50);
        for (std::uint64_t p : near_seed)
            touch(policy, p, 1);
        policy.epochUpdate(noc, 1000.0);
    }
    const std::uint64_t moved = policy.migratedPages();
    EXPECT_GT(moved, 0u);

    // Reversed heat next epoch: the just-moved pages are inside the
    // cooldown window, so they must sit the swap out.
    for (std::uint64_t p : far_seed)
        touch(policy, p, 1);
    for (std::uint64_t p : near_seed)
        touch(policy, p, 50);
    policy.epochUpdate(noc, 1000.0);
    EXPECT_EQ(policy.migratedPages(), moved);
}

TEST(HotnessTieringTest, ReuseFilterBlocksOneShotScans)
{
    const Mesh mesh(4, 4);
    MemTieringParams params;
    params.farRatio = 0.5;
    params.promoteMargin = 2.0;
    params.cooldownEpochs = 1;
    params.rowBudget = 8;
    HotnessTieringPolicy policy(mesh, params);
    NocModel noc(mesh, 1.0, 0.95, /*far_links=*/true);

    const auto far_seed = seededPages(mesh, params, MemTier::Far, 2);
    const auto near_seed =
        seededPages(mesh, params, MemTier::Near, 2);
    const std::uint64_t sustained = far_seed[0];
    const std::uint64_t scan = far_seed[1];

    // Epoch 1: a one-shot scan fills a whole far page (a miss burst
    // far above any sustained page) next to a modestly hot far page.
    touch(policy, sustained, 6);
    touch(policy, scan, 64);
    for (std::uint64_t p : near_seed)
        touch(policy, p, 1);
    policy.epochUpdate(noc, 1000.0);
    EXPECT_EQ(policy.promotions(), 0u); // Nothing passes reuse yet.

    // Epoch 2: the scan never returns, the sustained page does. Only
    // the sustained page qualifies — without the reuse filter the
    // scan's burst (EWMA 32 vs 6) would outrank it for the budget.
    touch(policy, sustained, 6);
    for (std::uint64_t p : near_seed)
        touch(policy, p, 1);
    policy.epochUpdate(noc, 1000.0);
    EXPECT_EQ(policy.promotions(), 1u);
    EXPECT_EQ(policy.onAccess(static_cast<LineAddr>(sustained)
                                  << pageLineShift,
                              0),
              MemTier::Near);
    EXPECT_EQ(policy.onAccess(static_cast<LineAddr>(scan)
                                  << pageLineShift,
                              0),
              MemTier::Far);
}

TEST(HotnessTieringTest, EpochDynamicsAreDeterministic)
{
    const Mesh mesh(4, 4);
    const auto run_history = [&mesh] {
        MemTieringParams params;
        params.farRatio = 0.5;
        params.cooldownEpochs = 1;
        params.rowBudget = 2;
        HotnessTieringPolicy policy(mesh, params);
        NocModel noc(mesh, 1.0, 0.95, /*far_links=*/true);
        for (int epoch = 0; epoch < 4; epoch++) {
            for (std::uint64_t p = 0; p < 64; p++)
                touch(policy, p,
                      static_cast<int>((p * 13 + epoch * 7) % 31));
            noc.epochUpdate(1000.0);
            policy.epochUpdate(noc, 1000.0);
        }
        std::vector<int> tiers;
        for (std::uint64_t p = 0; p < 64; p++) {
            tiers.push_back(static_cast<int>(policy.onAccess(
                static_cast<LineAddr>(p) << pageLineShift, 0)));
        }
        tiers.push_back(static_cast<int>(policy.migratedPages()));
        return tiers;
    };
    EXPECT_EQ(run_history(), run_history());
}

/** Fields that must agree between two runs byte-for-byte. */
void
expectRunsIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.totalInstrs, b.totalInstrs);
    EXPECT_EQ(a.wallCycles, b.wallCycles);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.farMemAccesses, b.farMemAccesses);
    EXPECT_EQ(a.onChipLatSum, b.onChipLatSum);
    EXPECT_EQ(a.offChipLatSum, b.offChipLatSum);
    EXPECT_EQ(a.farOffChipLatSum, b.farOffChipLatSum);
    EXPECT_EQ(a.memMigratedPages, b.memMigratedPages);
    EXPECT_EQ(a.tierPromotions, b.tierPromotions);
    EXPECT_EQ(a.tieredPages, b.tieredPages);
    for (std::size_t c = 0; c < a.trafficFlitHops.size(); c++)
        EXPECT_EQ(a.trafficFlitHops[c], b.trafficFlitHops[c]);
    ASSERT_EQ(a.threadCycles.size(), b.threadCycles.size());
    for (std::size_t t = 0; t < a.threadCycles.size(); t++)
        EXPECT_EQ(a.threadCycles[t], b.threadCycles[t]);
}

TEST(MemTieringTest, OffStateMatchesDefaultBitForBit)
{
    // farMemRatio = 0 must be the pre-tier simulator: no tiering
    // policy is built, so every other far knob (latency, channels,
    // the policy name) is inert and the run is bit-identical to the
    // untouched default config.
    SystemConfig base;
    base.meshWidth = 6;
    base.meshHeight = 6;
    base.accessesPerThreadEpoch = 5000;
    base.epochs = 4;
    base.warmupEpochs = 2;
    base.nocModel = "contention";

    SystemConfig off = base;
    off.farMemRatio = 0.0;
    off.memTiering = "hotness";
    off.farMemLatency = 999;
    off.farMemChannels = 1;
    off.farMemLinesPerCycle = 0.01;
    ASSERT_FALSE(off.hasFarTier());

    const MixSpec mix = MixSpec::cpu(8, 41);
    for (const SchemeSpec &scheme :
         {SchemeSpec::snuca(), SchemeSpec::cdcs()}) {
        const RunResult a = runScheme(base, scheme, mix);
        const RunResult b = runScheme(off, scheme, mix);
        expectRunsIdentical(a, b);
        EXPECT_EQ(a.farMemAccesses, 0u);
        EXPECT_EQ(a.tieredPages, 0u);
        EXPECT_EQ(a.farOffChipLatSum, 0.0);
    }
}

TEST(MemTieringTest, FarTierServesConfiguredShare)
{
    SystemConfig cfg;
    cfg.meshWidth = 6;
    cfg.meshHeight = 6;
    cfg.accessesPerThreadEpoch = 5000;
    cfg.epochs = 4;
    cfg.warmupEpochs = 2;
    cfg.farMemRatio = 0.5;
    cfg.memTiering = "static";

    const RunResult run =
        runScheme(cfg, SchemeSpec::snuca(), MixSpec::cpu(8, 43));
    EXPECT_GT(run.memAccesses, 0u);
    EXPECT_GT(run.farMemAccesses, 0u);
    EXPECT_LT(run.farMemAccesses, run.memAccesses);
    EXPECT_GT(run.tieredPages, 0u);
    EXPECT_GT(run.farResidentPages, 0u);
    EXPECT_GT(run.farOffChipLatSum, 0.0);
    EXPECT_LT(run.farOffChipLatSum, run.offChipLatSum);
    // The page-hash split puts roughly farMemRatio of accesses far
    // under a uniform workload.
    EXPECT_NEAR(run.farAccessShare(), cfg.farMemRatio, 0.15);
}

TEST(MemTieringTest, PerTierQueuesAreIsolated)
{
    // The far tier's M/D/m queue and serial latency are charged to
    // far accesses only: stretching the far latency must leave the
    // access counts and the on-chip path untouched (S-NUCA has no
    // latency feedback into its access stream) while the off-chip
    // total strictly grows by at least the serial-latency delta.
    SystemConfig slow;
    slow.meshWidth = 6;
    slow.meshHeight = 6;
    slow.accessesPerThreadEpoch = 5000;
    slow.epochs = 3;
    slow.warmupEpochs = 1;
    slow.farMemRatio = 0.5;
    slow.memTiering = "static";
    slow.farMemLatency = 600;
    SystemConfig fast = slow;
    fast.farMemLatency = 300;

    const MixSpec mix = MixSpec::cpu(8, 47);
    const RunResult a = runScheme(fast, SchemeSpec::snuca(), mix);
    const RunResult b = runScheme(slow, SchemeSpec::snuca(), mix);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.farMemAccesses, b.farMemAccesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.onChipLatSum, b.onChipLatSum);
    EXPECT_GT(a.farMemAccesses, 0u);
    EXPECT_GT(b.offChipLatSum, a.offChipLatSum);
    EXPECT_GT(b.farOffChipLatSum, a.farOffChipLatSum);

    // More far channels (same per-line rate) can only shrink the far
    // queue's contribution.
    SystemConfig wide = fast;
    wide.farMemChannels = 16;
    const RunResult c = runScheme(wide, SchemeSpec::snuca(), mix);
    EXPECT_EQ(c.farMemAccesses, a.farMemAccesses);
    EXPECT_LE(c.offChipLatSum, a.offChipLatSum);
}

TEST(MemTieringTest, TieringSweepSerialParallelIdentical)
{
    SystemConfig cfg;
    cfg.meshWidth = 6;
    cfg.meshHeight = 6;
    cfg.accessesPerThreadEpoch = 3000;
    cfg.epochs = 3;
    cfg.warmupEpochs = 1;
    cfg.nocModel = "contention";
    cfg.skewAlpha = 1.4;
    cfg.skewFraction = 0.5;
    cfg.farMemRatio = 0.5;
    cfg.memTiering = "hotness";

    const auto mix_of = [](int m) { return MixSpec::cpu(8, 600 + m); };
    const std::vector<SchemeSpec> schemes = {SchemeSpec::snuca(),
                                             SchemeSpec::cdcs()};
    ExperimentRunner::Options serial_opts;
    serial_opts.workers = 1;
    ExperimentRunner::Options parallel_opts;
    parallel_opts.workers = 4;
    ExperimentRunner serial(serial_opts);
    ExperimentRunner parallel(parallel_opts);

    const SweepResult a = serial.sweep(cfg, schemes, 3, mix_of);
    const SweepResult b = parallel.sweep(cfg, schemes, 3, mix_of);
    ASSERT_EQ(a.firstRun.size(), b.firstRun.size());
    for (std::size_t s = 0; s < a.firstRun.size(); s++) {
        expectRunsIdentical(a.firstRun[s], b.firstRun[s]);
        EXPECT_EQ(a.firstRun[s].tierDemotions,
                  b.firstRun[s].tierDemotions);
        EXPECT_EQ(a.firstRun[s].farResidentPages,
                  b.firstRun[s].farResidentPages);
    }
    ASSERT_EQ(a.ws.size(), b.ws.size());
    for (std::size_t s = 0; s < a.ws.size(); s++) {
        ASSERT_EQ(a.ws[s].size(), b.ws[s].size());
        for (std::size_t m = 0; m < a.ws[s].size(); m++)
            EXPECT_EQ(a.ws[s][m], b.ws[s][m]);
    }
}

/**
 * 1280 pages in runs of adjacent pages, in ascending order or in a
 * seeded shuffle. First-touching them in the two orders leaves the
 * same pages in different page-table slots.
 */
std::vector<std::uint64_t>
touchOrder(bool shuffled)
{
    std::vector<std::uint64_t> pages;
    for (std::uint64_t run = 0; run < 40; run++) {
        for (std::uint64_t i = 0; i < 32; i++)
            pages.push_back(run * 1000 + i);
    }
    if (shuffled) {
        Rng rng(99);
        for (std::size_t i = pages.size() - 1; i > 0; i--)
            std::swap(pages[i], pages[rng.below(i + 1)]);
    }
    return pages;
}

/** Accesses to `page` in `epoch`: 1-4, so hotness ties abound. */
int
accessesOf(std::uint64_t page, int epoch)
{
    return 1 + static_cast<int>(
                   mix64(page * 31 + static_cast<std::uint64_t>(epoch)) %
                   4);
}

TEST(PageOrderTest, ContentionPlacementIgnoresFirstTouchOrder)
{
    // Threads in a corner pin every page near it; the saturated
    // attach links make the rebalance migrate. Its candidate ranking
    // must come from (accesses, page id), never from slot order.
    const Mesh mesh(8, 8);
    const auto core_of = [&mesh](std::uint64_t page) {
        return mesh.tileAt(static_cast<int>(page % 3),
                           static_cast<int>(page / 3 % 3));
    };
    const auto run = [&](bool shuffled) {
        ContentionMemPlacement policy(mesh,
                                      ContentionMemPlacementParams{});
        NocModel noc(mesh, 4.0, 0.95);
        std::vector<std::uint64_t> ctrl_accesses(
            static_cast<std::size_t>(mesh.numMemCtrls()), 0);
        for (int epoch = 0; epoch < 4; epoch++) {
            for (const std::uint64_t page : touchOrder(shuffled)) {
                for (int n = accessesOf(page, epoch); n > 0; n--) {
                    const int ctrl = policy.controllerFor(
                        core_of(page), page << pageLineShift);
                    ctrl_accesses.at(static_cast<std::size_t>(ctrl))++;
                    noc.addMemTraffic(TrafficClass::LLCToMem,
                                      core_of(page), ctrl, 40);
                }
            }
            noc.epochUpdate(2000.0);
            policy.epochUpdate(noc, 2000.0);
        }
        std::vector<std::uint64_t> outcome = {policy.migratedPages()};
        for (const std::uint64_t page : touchOrder(false)) {
            outcome.push_back(static_cast<std::uint64_t>(
                policy.controllerFor(core_of(page),
                                     page << pageLineShift)));
        }
        outcome.insert(outcome.end(), ctrl_accesses.begin(),
                       ctrl_accesses.end());
        return outcome;
    };
    const std::vector<std::uint64_t> ascending = run(false);
    EXPECT_GT(ascending[0], 0u); // The rebalance did migrate.
    EXPECT_EQ(ascending, run(true));
}

TEST(PageOrderTest, HotnessTieringIgnoresFirstTouchOrder)
{
    const Mesh mesh(4, 4);
    const auto run = [&mesh](bool shuffled) {
        MemTieringParams params;
        params.farRatio = 0.5;
        params.cooldownEpochs = 1;
        params.rowBudget = 4;
        HotnessTieringPolicy policy(mesh, params);
        NocModel noc(mesh, 1.0, 0.95, /*far_links=*/true);
        for (int epoch = 0; epoch < 5; epoch++) {
            for (const std::uint64_t page : touchOrder(shuffled))
                touch(policy, page, accessesOf(page, epoch));
            policy.epochUpdate(noc, 1000.0);
        }
        std::vector<std::uint64_t> outcome = {policy.promotions(),
                                              policy.demotions(),
                                              policy.farResidentPages()};
        for (const std::uint64_t page : touchOrder(false)) {
            outcome.push_back(static_cast<std::uint64_t>(
                policy.onAccess(page << pageLineShift, 0)));
        }
        return outcome;
    };
    const std::vector<std::uint64_t> ascending = run(false);
    EXPECT_GT(ascending[0], 0u); // Promotions happened.
    EXPECT_EQ(ascending, run(true));
}

} // anonymous namespace
} // namespace cdcs
