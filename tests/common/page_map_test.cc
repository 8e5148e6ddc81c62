/**
 * @file
 * Tests for PageMap, the flat page table: tryEmplace/find agree with
 * a std::map reference through many growths on seeded keys that
 * include runs of adjacent pages, forEach visits every record once,
 * and the reserved empty key is rejected.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/page_map.hh"
#include "common/rng.hh"

namespace cdcs
{
namespace
{

/** 100k seeded keys: random pages, runs of adjacent pages, repeats. */
std::vector<std::uint64_t>
seededKeys()
{
    Rng rng(4242);
    std::vector<std::uint64_t> keys;
    while (keys.size() < 100000) {
        const std::uint64_t base = rng.next() >> 12;
        switch (rng.below(3)) {
          case 0: // A lone page.
            keys.push_back(base);
            break;
          case 1: // A run of adjacent pages (a streamed region).
            for (std::uint64_t i = 0, n = 1 + rng.below(64); i < n; i++)
                keys.push_back(base + i);
            break;
          default: // A repeat of an earlier page, if any.
            if (!keys.empty())
                keys.push_back(keys[rng.below(keys.size())]);
            break;
        }
    }
    return keys;
}

/** Every reference record is found with its value. */
void
expectMatches(const PageMap<std::uint64_t> &map,
              const std::map<std::uint64_t, std::uint64_t> &ref)
{
    ASSERT_EQ(map.size(), ref.size());
    for (const auto &[key, value] : ref) {
        const std::uint64_t *found = map.find(key);
        ASSERT_NE(found, nullptr) << key;
        ASSERT_EQ(*found, value) << key;
    }
}

TEST(PageMapTest, MatchesStdMapThroughGrowth)
{
    PageMap<std::uint64_t> map;
    std::map<std::uint64_t, std::uint64_t> ref;
    // The map starts at 16 slots and doubles past 7/8 load: check
    // every record right before and right after each growth.
    std::vector<std::size_t> checkpoints;
    for (std::size_t cap = 16; cap * 7 / 8 < 100000; cap *= 2) {
        checkpoints.push_back(cap * 7 / 8);
        checkpoints.push_back(cap * 7 / 8 + 1);
    }
    ASSERT_GE(checkpoints.size(), 6u); // At least three growths.

    std::uint64_t next_value = 1;
    for (const std::uint64_t key : seededKeys()) {
        const auto [value, inserted] = map.tryEmplace(key);
        const auto [it, ref_inserted] = ref.try_emplace(key, next_value);
        ASSERT_EQ(inserted, ref_inserted) << key;
        if (inserted) {
            EXPECT_EQ(*value, 0u); // Value-initialized.
            *value = next_value++;
        }
        ASSERT_EQ(*value, it->second) << key;
        if (inserted &&
            std::find(checkpoints.begin(), checkpoints.end(),
                      ref.size()) != checkpoints.end()) {
            expectMatches(map, ref);
        }
    }
    expectMatches(map, ref);
    EXPECT_GT(ref.size(), checkpoints[5]);

    // Absent keys miss, including the neighbours of stored runs and
    // the empty marker itself.
    Rng rng(77);
    for (int i = 0; i < 10000; i++) {
        const std::uint64_t key = rng.next() >> 12;
        if (ref.count(key) == 0) {
            EXPECT_EQ(map.find(key), nullptr) << key;
        }
    }
    EXPECT_EQ(map.find(PageMap<std::uint64_t>::emptyKey), nullptr);
}

TEST(PageMapTest, ForEachVisitsEveryRecordOnce)
{
    PageMap<std::uint64_t> map;
    std::map<std::uint64_t, std::uint64_t> ref;
    for (const std::uint64_t key : seededKeys()) {
        const auto [value, inserted] = map.tryEmplace(key);
        if (inserted) {
            *value = key * 3 + 1;
            ref.emplace(key, *value);
        }
    }
    std::vector<std::uint64_t> seen;
    map.forEach([&](std::uint64_t key, std::uint64_t &value) {
        seen.push_back(key);
        EXPECT_EQ(value, ref.at(key));
        value++; // Records are mutable in place.
    });
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), ref.size());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) ==
                seen.end());
    auto it = ref.begin();
    for (const std::uint64_t key : seen) {
        EXPECT_EQ(key, it->first);
        EXPECT_EQ(*map.find(key), it->second + 1);
        ++it;
    }
}

TEST(PageMapDeathTest, EmptyKeyIsRejected)
{
    PageMap<int> map;
    EXPECT_DEATH(map.tryEmplace(PageMap<int>::emptyKey),
                 "key != emptyKey");
}

} // anonymous namespace
} // namespace cdcs
