/**
 * @file
 * Differential test of the tag store: PartitionedBank (per-set blocks,
 * 8-bit recency ranks) against the array-of-structs reference with
 * 64-bit LRU stamps (reference_bank.hh), driven by the same seeded
 * operation sequences at several associativities. Every result,
 * occupancy and walk output must match, in order, and so must the
 * final contents of every way.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/partitioned_bank.hh"
#include "common/rng.hh"
#include "reference_bank.hh"

namespace cdcs
{
namespace
{

constexpr VcId numVcs = 4;
constexpr std::uint32_t numSets = 32;

void
expectSame(const BankAccessResult &got, const ref::Result &want,
           const std::string &where)
{
    EXPECT_EQ(got.hit, want.hit) << where;
    EXPECT_EQ(got.evicted, want.evicted) << where;
    EXPECT_EQ(got.bypassed, want.bypassed) << where;
    EXPECT_EQ(got.evictedAddr, want.evictedAddr) << where;
    EXPECT_EQ(got.evictedVc, want.evictedVc) << where;
    EXPECT_EQ(got.evictedSharers, want.evictedSharers) << where;
}

void
expectSame(const CacheLine &got, const ref::Line &want,
           const std::string &where)
{
    EXPECT_EQ(got.valid, want.valid) << where;
    EXPECT_EQ(got.addr, want.addr) << where;
    EXPECT_EQ(got.vc, want.vc) << where;
    EXPECT_EQ(got.sharers, want.sharers) << where;
}

ref::Line
toRef(const CacheLine &line)
{
    ref::Line out;
    out.addr = line.addr;
    out.vc = line.vc;
    out.sharers = line.sharers;
    out.valid = line.valid;
    return out;
}

/** A walk predicate over (addr, vc), for both models. */
bool
walkSelects(LineAddr addr, VcId vc, VcId victim_vc)
{
    return vc == victim_vc || (mix64(addr) & 3) == 0;
}

void
runDiff(std::uint32_t ways, std::uint64_t seed, int ops)
{
    const std::uint64_t lines = std::uint64_t{numSets} * ways;
    PartitionedBank bank(lines, ways, 0xD1FF + seed);
    ref::Bank model(lines, ways, 0xD1FF + seed);
    Rng rng(seed);
    // Each VC's footprint is ~3/4 of the bank, so the VCs contend,
    // sets overflow and lines come back after eviction.
    const std::uint64_t footprint = lines * 3 / 4 + 1;
    const auto pick_line = [&](VcId vc) {
        return (LineAddr{vc} << 40) | rng.below(footprint);
    };
    // Lines taken out by extractForMove/walkCollect, to move back in.
    std::vector<CacheLine> moving;

    for (int i = 0; i < ops; i++) {
        const std::string where = "ways " + std::to_string(ways) +
            " seed " + std::to_string(seed) + " op " + std::to_string(i);
        const auto vc = static_cast<VcId>(rng.below(numVcs));
        // Cores past 64 wrap in the sharer mask.
        const auto core = static_cast<TileId>(rng.below(80));
        const std::uint64_t kind = rng.below(100);
        if (kind < 45) {
            // The access path: probe, then fill on a miss.
            const LineAddr addr = pick_line(vc);
            const bool hit = bank.probeHit(addr, vc, core);
            ASSERT_EQ(hit, model.probeHit(addr, vc, core)) << where;
            if (!hit)
                expectSame(bank.fill(addr, vc, core),
                           model.fill(addr, vc, core), where);
        } else if (kind < 50) {
            const LineAddr addr = pick_line(vc);
            expectSame(bank.access(addr, vc, core),
                       model.access(addr, vc, core), where);
        } else if (kind < 58) {
            const LineAddr addr = pick_line(vc);
            CacheLine got;
            ref::Line want;
            const bool found = bank.extractForMove(addr, got);
            ASSERT_EQ(found, model.extractForMove(addr, want)) << where;
            if (found) {
                expectSame(got, want, where);
                moving.push_back(got);
            }
        } else if (kind < 66) {
            if (moving.empty())
                continue;
            const std::size_t pick = rng.below(moving.size());
            const CacheLine moved = moving[pick];
            moving.erase(moving.begin() +
                         static_cast<std::ptrdiff_t>(pick));
            // A demand move installs only after missing in the new
            // bank; skip lines that came back in the meantime.
            const CacheArray &arr = bank.rawArray();
            if (arr.find(arr.setOf(moved.addr), moved.addr) !=
                arr.numWays())
                continue;
            expectSame(bank.installMoved(moved, moved.vc),
                       model.installMoved(toRef(moved), moved.vc), where);
        } else if (kind < 72) {
            const LineAddr addr = pick_line(vc);
            ASSERT_EQ(bank.invalidateLine(addr),
                      model.invalidateLine(addr)) << where;
        } else if (kind < 82) {
            // Small targets make VCs over budget (victim rule 1) and
            // at target (own-line victims and bypassed fills).
            const std::uint64_t target = rng.chance(0.1)
                ? PartitionedBank::unmanagedTarget
                : rng.below(lines / numVcs * 2 + 1);
            bank.setTarget(vc, target);
            model.setTarget(vc, target);
        } else if (kind < 84) {
            bank.clearTargets();
            model.clearTargets();
        } else if (kind < 92) {
            const auto num = static_cast<std::uint32_t>(
                1 + rng.below(numSets / 2));
            std::uint64_t got = 0;
            std::uint64_t want = 0;
            const bool done = bank.walkInvalidate(
                num,
                [vc](const CacheLine &l) {
                    return walkSelects(l.addr, l.vc, vc);
                },
                got);
            ASSERT_EQ(done,
                      model.walk(
                          num,
                          [vc](const ref::Line &l) {
                              return walkSelects(l.addr, l.vc, vc);
                          },
                          nullptr, want))
                << where;
            ASSERT_EQ(got, want) << where;
        } else {
            const auto num = static_cast<std::uint32_t>(
                1 + rng.below(numSets / 2));
            std::vector<CacheLine> got;
            std::vector<ref::Line> want;
            std::uint64_t removed = 0;
            const bool done = bank.walkCollect(
                num,
                [vc](const CacheLine &l) {
                    return walkSelects(l.addr, l.vc, vc);
                },
                got);
            ASSERT_EQ(done,
                      model.walk(
                          num,
                          [vc](const ref::Line &l) {
                              return walkSelects(l.addr, l.vc, vc);
                          },
                          &want, removed))
                << where;
            ASSERT_EQ(got.size(), want.size()) << where;
            for (std::size_t k = 0; k < got.size(); k++)
                expectSame(got[k], want[k], where);
            moving.insert(moving.end(), got.begin(), got.end());
        }

        for (VcId v = 0; v < numVcs; v++)
            ASSERT_EQ(bank.occupancy(v), model.occupancy(v)) << where;
        ASSERT_EQ(bank.totalOccupancy(), model.totalOccupancy()) << where;
        if (i % 16 == 0) {
            ASSERT_EQ(bank.rawArray().numValid(), model.numValid())
                << where;
        }
        if (::testing::Test::HasFailure())
            return;
    }

    // Same victims all along means the same line in every way.
    for (std::uint32_t s = 0; s < numSets; s++) {
        for (std::uint32_t w = 0; w < ways; w++) {
            const ref::Line &want = model.entry(s, w);
            const CacheLine got = bank.rawArray().entry(s, w);
            ASSERT_EQ(got.valid, want.valid);
            if (want.valid) {
                expectSame(got, want,
                           "final set " + std::to_string(s) + " way " +
                               std::to_string(w));
            }
        }
    }
}

class TagStoreDiff
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(TagStoreDiff, MatchesAosReference)
{
    for (const std::uint64_t seed : {1u, 7u, 42u})
        runDiff(GetParam(), seed, 20000);
}

INSTANTIATE_TEST_SUITE_P(Ways, TagStoreDiff,
                         ::testing::Values(1u, 2u, 16u, 32u));

} // anonymous namespace
} // namespace cdcs
