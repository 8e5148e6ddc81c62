/**
 * @file
 * A work-stealing thread pool over lock-free Chase-Lev deques. run()
 * distributes a batch round-robin across per-worker deques (pushes
 * serialized by a submit mutex, so the submitter side is the deques'
 * single "owner"); workers drain them with lock-free steals — their
 * own share first, then victims' — so a batch of unevenly-sized tasks
 * (e.g. S-NUCA vs. CDCS runs) keeps every core busy until the batch
 * drains, with no lock on the execution path.
 *
 * Sleeping workers are woken only when the idle count is nonzero
 * (never a broadcast to a fully-busy pool), and wakeupCount() exposes
 * how often that happened so tests can pin the no-idle-no-wakeup
 * contract.
 *
 * Tasks must not throw. Nested run() calls from inside a worker
 * execute inline (serially) instead of deadlocking the pool.
 */

#ifndef CDCS_COMMON_TASK_POOL_HH
#define CDCS_COMMON_TASK_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/chase_lev.hh"

namespace cdcs
{

/** Work-stealing pool with persistent workers. */
class WorkStealingPool
{
  public:
    /**
     * @param workers Worker-thread count; 0 picks defaultWorkers().
     *        A 1-worker pool runs everything inline on the caller
     *        (deterministic serial mode).
     */
    explicit WorkStealingPool(unsigned workers = 0);
    ~WorkStealingPool();

    WorkStealingPool(const WorkStealingPool &) = delete;
    WorkStealingPool &operator=(const WorkStealingPool &) = delete;

    /** Run a batch of tasks; blocks until every task completed. */
    void run(std::vector<std::function<void()>> tasks);

    unsigned workerCount() const { return numWorkers; }

    /** Workers currently parked on the sleep cv (racy, for tests). */
    unsigned
    idleWorkers() const
    {
        return idleCount.load();
    }

    /** Tasks enqueued but not yet claimed (racy, for tests). */
    std::uint64_t
    queuedTasks() const
    {
        return queued.load();
    }

    /**
     * How many submissions woke sleeping workers. A submit while
     * every worker is busy must not bump this (the broadcast-on-
     * every-submit regression the counter exists to pin).
     */
    std::uint64_t
    wakeupCount() const
    {
        return wakeups.load();
    }

    /** Tasks a worker took from another worker's deque. */
    std::uint64_t
    stealCount() const
    {
        return steals.load();
    }

    /** Total nanoseconds workers spent parked on the sleep cv. */
    std::uint64_t
    idleNanos() const
    {
        return idleNs.load();
    }

    /** The hardware thread count (at least 1). */
    static unsigned defaultWorkers();

  private:
    void workerLoop(unsigned self);
    /** Steal own share or a victim's; false when nothing runnable. */
    bool runOneTask(unsigned self);

    unsigned numWorkers;
    std::vector<std::unique_ptr<ChaseLevDeque>> deques;
    std::vector<std::thread> threads;

    /**
     * Serializes submitters: Chase-Lev bottoms have a single owner,
     * and here the owner is "whoever is inside run()" — workers never
     * push (nested run() executes inline), they only steal.
     */
    std::mutex submitMu;

    std::mutex sleepMu;
    std::condition_variable workCv;  ///< Wakes idle workers.
    std::condition_variable doneCv;  ///< Wakes a blocked run().
    std::atomic<std::uint64_t> queued{0};    ///< Tasks in deques.
    std::atomic<std::uint64_t> pending{0};   ///< Unfinished tasks.
    std::atomic<unsigned> idleCount{0};      ///< Parked workers.
    std::atomic<std::uint64_t> wakeups{0};   ///< Submit-side notifies.
    std::atomic<std::uint64_t> steals{0};    ///< Cross-deque takes.
    std::atomic<std::uint64_t> idleNs{0};    ///< Parked wall time.
    std::atomic<bool> stopping{false};
    std::atomic<unsigned> nextQueue{0};      ///< Round-robin cursor.
};

} // namespace cdcs

#endif // CDCS_COMMON_TASK_POOL_HH
