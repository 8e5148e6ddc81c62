/**
 * @file
 * Tests for the striped parallel-for pool: exactly-once delivery at
 * 1 and 4 workers, serial == parallel results, inline nested run(),
 * cross-stripe stealing when one index blocks, idle time that
 * includes the batch tail, and a dense stress of uneven batches (the
 * TSan CI job runs this file).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/task_pool.hh"

namespace cdcs
{
namespace
{

TEST(TaskPoolTest, RunsEveryTaskExactlyOnce)
{
    for (unsigned workers : {1u, 4u}) {
        WorkStealingPool pool(workers);
        constexpr std::size_t n = 500;
        std::vector<std::atomic<int>> ran(n);
        for (auto &r : ran)
            r.store(0);
        pool.run(n, [&ran](std::size_t i) { ran[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; i++)
            EXPECT_EQ(ran[i].load(), 1) << "index " << i;
    }
}

TEST(TaskPoolTest, SerialAndParallelProduceIdenticalResults)
{
    // The pool only schedules: with results keyed by index, a
    // 1-worker (inline) pool and a wide pool must fill identical
    // output — the contract the deterministic sweeps build on.
    const auto fill = [](WorkStealingPool &pool,
                         std::vector<double> &out) {
        pool.run(out.size(), [&out](std::size_t i) {
            double x = static_cast<double>(i) + 1.0;
            for (int k = 0; k < 50; k++)
                x = x * 1.0000001 + 0.5;
            out[i] = x;
        });
    };
    std::vector<double> serial(400, 0.0), parallel(400, 0.0);
    WorkStealingPool one(1), eight(8);
    fill(one, serial);
    fill(eight, parallel);
    EXPECT_EQ(serial, parallel);
}

TEST(TaskPoolTest, NestedRunExecutesInlineWithoutDeadlock)
{
    WorkStealingPool pool(2);
    std::atomic<int> inner{0};
    pool.run(4, [&](std::size_t) {
        pool.run(8, [&](std::size_t) { inner.fetch_add(1); });
    });
    EXPECT_EQ(inner.load(), 32);
}

TEST(TaskPoolTest, BlockedIndexLeavesItsStripeToOtherWorkers)
{
    // Index 0 waits until every other index has run. Index 0's
    // stripe also holds 4, 8, ..., so those complete only if other
    // workers take them from that stripe; and whoever took index 0
    // is either its owner (the rest are then stolen) or a thief.
    // Either way the batch finishes and stealCount() moves.
    constexpr std::size_t n = 64;
    WorkStealingPool pool(4);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t others_done = 0;
    pool.run(n, [&](std::size_t i) {
        std::unique_lock<std::mutex> lock(mu);
        if (i == 0) {
            cv.wait(lock, [&] { return others_done == n - 1; });
        } else {
            others_done++;
            cv.notify_all();
        }
    });
    EXPECT_EQ(others_done, n - 1);
    EXPECT_GT(pool.stealCount(), 0u);
}

TEST(TaskPoolTest, IdleTimeIncludesTheBatchTail)
{
    WorkStealingPool pool(4);
    // Warm-up: every worker has started and parked once.
    pool.run(4, [](std::size_t) {});
    const std::uint64_t before = pool.idleNanos();
    // One index sleeps ~50 ms while the other three workers run out
    // of work and park: ~150 ms of tail idle inside this batch.
    pool.run(4, [](std::size_t i) {
        if (i == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
    const std::uint64_t idle = pool.idleNanos() - before;
    EXPECT_GE(idle, 100'000'000u) << idle << " ns";
}

TEST(TaskPoolTest, StressFourWorkersTwentyThousandTasks)
{
    // Sanitizer stress (the TSan CI job runs this under
    // CDCS_SANITIZE=thread): 4 workers draining 20k tiny indices
    // submitted in uneven batches, so cursor races on the last
    // index of a stripe and the park/wake handoff between batches
    // are exercised densely. Functional assertion: exactly-once
    // execution and a correct sum.
    constexpr int numTasks = 20000;
    WorkStealingPool pool(4);
    std::vector<std::atomic<int>> ran(numTasks);
    for (auto &r : ran)
        r.store(0);
    std::atomic<long long> sum{0};

    int next = 0;
    int batch_size = 1;
    while (next < numTasks) {
        const int end = std::min(numTasks, next + batch_size);
        const int base = next;
        pool.run(static_cast<std::size_t>(end - base),
                 [&ran, &sum, base](std::size_t k) {
                     const int i = base + static_cast<int>(k);
                     ran[static_cast<std::size_t>(i)].fetch_add(1);
                     sum.fetch_add(i);
                 });
        next = end;
        // Uneven batches: singletons through ~4k-index storms.
        batch_size = batch_size >= 4096 ? 1 : batch_size * 4;
    }

    long long expected = 0;
    for (int i = 0; i < numTasks; i++) {
        EXPECT_EQ(ran[static_cast<std::size_t>(i)].load(), 1)
            << "task " << i;
        expected += i;
    }
    EXPECT_EQ(sum.load(), expected);
    EXPECT_GT(pool.stealCount(), 0u);
}

} // anonymous namespace
} // namespace cdcs
