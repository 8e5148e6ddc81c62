/**
 * @file
 * Tests for the set-associative tag store: lookup, install and
 * invalidation, the set-block layout's per-way fields, and LRU
 * recency as the bank's victim choice observes it.
 */

#include <gtest/gtest.h>

#include "cache/cache_array.hh"
#include "cache/partitioned_bank.hh"

namespace cdcs
{
namespace
{

/** True if `addr` is resident in `array`. */
bool
holds(const CacheArray &array, LineAddr addr)
{
    return array.find(array.setOf(addr), addr) != array.numWays();
}

TEST(CacheArrayTest, ProbeMissOnEmpty)
{
    CacheArray array(64, 8);
    EXPECT_FALSE(holds(array, 0x123));
    EXPECT_EQ(array.numValid(), 0u);
    EXPECT_FALSE(array.entry(3, 5).valid);
}

TEST(CacheArrayTest, InstallThenHit)
{
    CacheArray array(64, 8);
    const LineAddr addr = 0xBEEF;
    const std::uint32_t set = array.setOf(addr);
    array.install(set, 6, addr, 3, 0x5);
    ASSERT_EQ(array.find(set, addr), 6u);
    const CacheLine line = array.entry(set, 6);
    EXPECT_TRUE(line.valid);
    EXPECT_EQ(line.addr, addr);
    EXPECT_EQ(line.vc, 3);
    EXPECT_EQ(line.sharers, 0x5u);
    array.addSharers(set, 6, 0x8);
    EXPECT_EQ(array.sharers(set, 6), 0xDu);
    EXPECT_EQ(array.numValid(), 1u);
}

TEST(CacheArrayTest, InvalidateRemovesLine)
{
    CacheArray array(64, 8);
    const std::uint32_t set = array.setOf(0x42);
    array.install(set, 0, 0x42, 0, 0);
    array.invalidate(set, 0);
    EXPECT_FALSE(holds(array, 0x42));
    EXPECT_FALSE(array.valid(set, 0));
    EXPECT_EQ(array.numValid(), 0u);
}

TEST(CacheArrayTest, WaysKeepTheirOwnFields)
{
    // Every way of a wide set holds its own tag, VC id and sharers:
    // neighbours in the set block must not overwrite each other.
    CacheArray array(4, 32);
    for (std::uint32_t w = 0; w < 32; w++)
        array.install(1, w, 1000 + w, static_cast<VcId>(0xFF00 + w),
                      1ull << w);
    for (std::uint32_t w = 0; w < 32; w++) {
        EXPECT_EQ(array.addr(1, w), 1000u + w);
        EXPECT_EQ(array.vc(1, w), 0xFF00 + w);
        EXPECT_EQ(array.sharers(1, w), 1ull << w);
        EXPECT_EQ(array.rank(1, w), 31 - w); // Last installed is MRU.
    }
    EXPECT_EQ(array.numValid(), 32u);
}

TEST(CacheArrayTest, ProbeHitMakesLineMru)
{
    // One 4-way set: after filling A B C D, a hit on A leaves B as the
    // LRU, so the next fill evicts B, then C.
    PartitionedBank bank(4, 4);
    for (LineAddr a = 1; a <= 4; a++)
        bank.fill(a, 0, 0);
    ASSERT_TRUE(bank.probeHit(1, 0, 0));
    BankAccessResult res = bank.fill(5, 0, 0);
    ASSERT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedAddr, 2u);
    res = bank.fill(6, 0, 0);
    ASSERT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedAddr, 3u);
}

TEST(CacheArrayTest, LookupsOtherThanHitsLeaveRecencyAlone)
{
    // A tag lookup, a probe miss and the removal of another line do
    // not refresh A: it is still the LRU the next fill evicts.
    PartitionedBank bank(4, 4);
    for (LineAddr a = 1; a <= 4; a++)
        bank.fill(a, 0, 0);
    const CacheArray &array = bank.rawArray();
    EXPECT_TRUE(holds(array, 1));
    EXPECT_FALSE(bank.probeHit(9, 0, 0));
    EXPECT_TRUE(bank.invalidateLine(3));
    bank.fill(7, 0, 0); // Reuses the invalid way.
    const BankAccessResult res = bank.fill(8, 0, 0);
    ASSERT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedAddr, 1u);
}

TEST(CacheArrayTest, SetIndexIsStable)
{
    CacheArray array(128, 4);
    for (LineAddr a = 0; a < 1000; a++)
        EXPECT_EQ(array.setOf(a), array.setOf(a));
}

TEST(CacheArrayTest, SetHashSpreadsAddresses)
{
    CacheArray array(128, 4);
    std::vector<int> counts(128, 0);
    for (LineAddr a = 0; a < 128 * 64; a++)
        counts[array.setOf(a)]++;
    for (int c : counts) {
        EXPECT_GT(c, 16);
        EXPECT_LT(c, 192);
    }
}

TEST(CacheArrayTest, InvalidateAll)
{
    CacheArray array(64, 4);
    for (LineAddr a = 0; a < 100; a++)
        array.install(array.setOf(a), a % 4, a, 0, 0);
    array.invalidateAll();
    EXPECT_EQ(array.numValid(), 0u);
}

TEST(CacheArrayTest, MaxWaysRanksStayAPermutation)
{
    // At the 8-bit limit the ranks still order every way: install all
    // 256, then a hit on the LRU way ages every other way by one.
    CacheArray array(2, CacheArray::maxWays);
    for (std::uint32_t w = 0; w < CacheArray::maxWays; w++)
        array.install(1, w, w, 0, 0);
    EXPECT_EQ(array.rank(1, 0), CacheArray::maxWays - 1);
    array.touch(1, 0);
    EXPECT_EQ(array.rank(1, 0), 0u);
    for (std::uint32_t w = 1; w < CacheArray::maxWays; w++)
        EXPECT_EQ(array.rank(1, w), CacheArray::maxWays - w);
}

} // anonymous namespace
} // namespace cdcs
