/**
 * @file
 * Tests for the stat registry behind `--set stats=` and `timing=1`:
 * idempotent registration across translation units, the disabled
 * default recording nothing, per-thread sharding folded by snapshot()
 * while localSnapshot() isolates the calling thread, phase timers
 * charging their `time.*` counters (nothing while disabled, summed
 * across threads), and the `stats=` filter grammar (prefix subtrees,
 * exact names, all/none, name-sorted column order, `time.*` only on
 * an explicit prefix).
 */

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/phase_timer.hh"
#include "obs/stat_registry.hh"

namespace cdcs
{
namespace
{

TEST(StatRegistryTest, RegistrationIsIdempotent)
{
    const StatId a = StatRegistry::counter("test.idem");
    const StatId b = StatRegistry::counter("test.idem");
    EXPECT_EQ(a, b);
    EXPECT_EQ(StatRegistry::name(a), "test.idem");
    const StatId c = StatRegistry::counter("test.idem2");
    EXPECT_NE(a, c);
}

TEST(StatRegistryTest, DisabledAddsRecordNothing)
{
    const StatId id = StatRegistry::counter("test.disabled");
    StatRegistry::setEnabled(false);
    StatRegistry::add(id, 100);
    EXPECT_EQ(StatRegistry::snapshot()[id], 0u);
}

TEST(StatRegistryTest, SnapshotFoldsShardsAcrossThreads)
{
    const StatId id = StatRegistry::counter("test.folded");
    const std::uint64_t before = StatRegistry::snapshot()[id];
    StatRegistry::setEnabled(true);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
        threads.emplace_back([id] {
            for (int i = 0; i < 1000; i++)
                StatRegistry::add(id);
        });
    }
    for (auto &t : threads)
        t.join();
    StatRegistry::setEnabled(false);
    EXPECT_EQ(StatRegistry::snapshot()[id] - before, 4000u);
}

TEST(StatRegistryTest, LocalSnapshotIsolatesTheCallingThread)
{
    const StatId id = StatRegistry::counter("test.local");
    const std::uint64_t before = StatRegistry::localSnapshot()[id];
    StatRegistry::setEnabled(true);
    StatRegistry::add(id, 7);
    // Another thread's bumps must not leak into this thread's shard.
    std::thread other([id] { StatRegistry::add(id, 1000); });
    other.join();
    StatRegistry::setEnabled(false);
    EXPECT_EQ(StatRegistry::localSnapshot()[id] - before, 7u);
}

using namespace std::chrono_literals;

/** Burn a small, measurable amount of wall time. */
void
spin(std::chrono::steady_clock::duration d)
{
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
}

TEST(PhaseTimerTest, DisabledTimersRecordNothing)
{
    StatRegistry::setEnabled(false);
    const auto before = StatRegistry::snapshot();
    {
        PhaseTimer timer(Phase::Access);
        spin(1ms);
    }
    const StatId id = phaseStat(Phase::Access);
    EXPECT_EQ(StatRegistry::snapshot()[id] - before[id], 0u);
}

TEST(PhaseTimerTest, SnapshotSumsTimersOverThreads)
{
    const StatId id = phaseStat(Phase::Reconfig);
    StatRegistry::setEnabled(true);
    const auto before = StatRegistry::snapshot();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
        threads.emplace_back([] {
            PhaseTimer timer(Phase::Reconfig);
            spin(2ms);
        });
    }
    for (auto &t : threads)
        t.join();
    StatRegistry::setEnabled(false);
    // Four threads each charged >= 2 ms; the sum sees all of them
    // even though the recording threads have exited.
    EXPECT_GE(StatRegistry::snapshot()[id] - before[id],
              4u * 2'000'000u);
    // Only the timed phase moved.
    const StatId other = phaseStat(Phase::StoreIo);
    EXPECT_EQ(StatRegistry::snapshot()[other] - before[other], 0u);
}

TEST(StatRegistryTest, SelectFilterGrammar)
{
    const StatId ax = StatRegistry::counter("sel.a.x");
    const StatId ay = StatRegistry::counter("sel.a.y");
    const StatId b = StatRegistry::counter("sel.b");
    StatRegistry::counter("selx.other"); // Prefix must not match this.

    EXPECT_TRUE(StatRegistry::select("").empty());
    EXPECT_TRUE(StatRegistry::select("0").empty());

    // "all" is every counter but the wall-clock `time.*` timers,
    // which only an explicit prefix selects.
    const auto all = StatRegistry::select("all");
    const auto timers = StatRegistry::select("time");
    ASSERT_EQ(timers.size(), 3u);
    EXPECT_EQ(StatRegistry::name(timers[0]), "time.access_ns");
    EXPECT_EQ(all.size() + timers.size(), StatRegistry::numStats());
    for (StatId id : all)
        EXPECT_NE(StatRegistry::name(id).rfind("time.", 0), 0u);
    EXPECT_EQ(StatRegistry::select("1"), all);

    // A dot-prefix selects the subtree; an exact name just itself.
    const auto sub = StatRegistry::select("sel.a");
    ASSERT_EQ(sub.size(), 2u);
    EXPECT_EQ(sub[0], ax); // Sorted by name.
    EXPECT_EQ(sub[1], ay);

    const auto mixed = StatRegistry::select("sel.b,sel.a.y");
    ASSERT_EQ(mixed.size(), 2u);
    EXPECT_EQ(mixed[0], ay);
    EXPECT_EQ(mixed[1], b);

    // "sel" subtree, but never the unrelated "selx" sibling.
    const auto tree = StatRegistry::select("sel");
    EXPECT_EQ(tree.size(), 3u);
}

} // anonymous namespace
} // namespace cdcs
