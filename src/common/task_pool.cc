#include "common/task_pool.hh"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/log.hh"
#include "obs/trace.hh"

namespace cdcs
{

namespace
{

/// Set while a pool worker (or an inline run()) is executing indices;
/// nested run() calls then execute inline instead of blocking on the
/// pool they are running inside of.
thread_local bool inside_pool = false;

} // anonymous namespace

unsigned
WorkStealingPool::defaultWorkers()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

WorkStealingPool::WorkStealingPool(unsigned workers)
    : numWorkers(workers > 0 ? workers : defaultWorkers()),
      cursors(numWorkers), parkedSince(numWorkers)
{
    if (numWorkers <= 1)
        return;
    threads.reserve(numWorkers);
    for (unsigned w = 0; w < numWorkers; w++)
        threads.emplace_back([this, w]() { workerLoop(w); });
}

WorkStealingPool::~WorkStealingPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    workCv.notify_all();
    for (std::thread &t : threads)
        t.join();
}

void
WorkStealingPool::drain(unsigned self)
{
    // batchFn and batchSize stay fixed until every worker has left
    // drain(), so they are read here without the lock.
    const std::function<void(std::size_t)> &fn = *batchFn;
    const std::size_t n = batchSize;
    for (unsigned i = 0; i < numWorkers; i++) {
        const unsigned w = (self + i) % numWorkers;
        while (true) {
            const std::size_t index =
                w + cursors[w].fetch_add(1) * numWorkers;
            if (index >= n)
                break;
            if (i > 0)
                steals.fetch_add(1);
            fn(index);
        }
    }
}

void
WorkStealingPool::workerLoop(unsigned self)
{
    using Clock = std::chrono::steady_clock;
    // Charge worker w's park from parkedSince[w] up to `now`, and
    // restart it there. Called with mu held.
    const auto charge = [this](unsigned w, Clock::time_point now) {
        idleNs.fetch_add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - parkedSince[w])
                .count()));
        parkedSince[w] = now;
    };
    inside_pool = true;
    setLogWorker(static_cast<int>(self));
    Tracer::nameThread("worker-" + std::to_string(self));
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu);
    parkedSince[self] = Clock::now(); // lint:allow(wallclock): idle stat
    while (true) {
        workCv.wait(lock, [&]() {
            return stopping || batchNumber != seen;
        });
        charge(self, Clock::now()); // lint:allow(wallclock): idle stat
        if (stopping)
            return;
        seen = batchNumber;
        lock.unlock();
        drain(self);
        lock.lock();
        parkedSince[self] = Clock::now(); // lint:allow(wallclock)
        if (--busyWorkers == 0) {
            // The batch ends here: charge every worker's park so far,
            // so a reading right after run() includes the tail.
            for (unsigned w = 0; w < numWorkers; w++)
                charge(w, parkedSince[self]);
            doneCv.notify_all();
        }
    }
}

void
WorkStealingPool::run(std::size_t n,
                      const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    // Serial pool, or a nested call from inside a worker: execute
    // inline. Inline nested execution keeps the outer index's worker
    // busy and cannot deadlock.
    if (threads.empty() || inside_pool) {
        const bool was_inside = inside_pool;
        inside_pool = true;
        for (std::size_t i = 0; i < n; i++)
            fn(i);
        inside_pool = was_inside;
        return;
    }

    std::unique_lock<std::mutex> lock(mu);
    doneCv.wait(lock, [this]() { return batchFn == nullptr; });
    // Every worker has left drain() for the last batch, so the
    // cursors can be rewound; the workers read them only after
    // taking mu and seeing the new batch number.
    for (std::atomic<std::size_t> &cursor : cursors)
        cursor.store(0);
    batchFn = &fn;
    batchSize = n;
    busyWorkers = numWorkers;
    batchNumber++;
    workCv.notify_all();
    doneCv.wait(lock, [this]() { return busyWorkers == 0; });
    batchFn = nullptr;
    // Let the next waiting caller start its batch.
    doneCv.notify_all();
}

} // namespace cdcs
