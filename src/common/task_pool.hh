/**
 * @file
 * A striped parallel-for over persistent workers. run(n, fn) deals
 * the indices [0, n) into one stripe per worker (worker w owns w,
 * w+N, w+2N, ...), each stripe one atomic cursor. A worker drains its
 * own stripe in order, then the other stripes, so a batch of
 * unevenly-sized jobs (e.g. S-NUCA vs. CDCS runs) keeps every core
 * busy until the batch drains. Between batches the workers park on a
 * condition variable.
 *
 * One batch runs at a time: a second outside caller waits until the
 * current batch has drained. fn must not throw. Nested run() calls
 * from inside a worker, and every run() of a 1-worker pool, execute
 * inline (serially) on the calling thread.
 */

#ifndef CDCS_COMMON_TASK_POOL_HH
#define CDCS_COMMON_TASK_POOL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cdcs
{

/** Parallel-for pool with persistent workers and striped indices. */
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

    /** Call fn(i) once for every i in [0, n); blocks until done. */
    void run(std::size_t n, const std::function<void(std::size_t)> &fn);

    unsigned workerCount() const { return numWorkers; }

    /** Indices a worker took from another worker's stripe. */
    std::uint64_t
    stealCount() const
    {
        return steals.load();
    }

    /**
     * Total nanoseconds workers spent parked on the sleep cv. A
     * worker's park from leaving a batch to the end of that batch is
     * charged when the batch ends, so a reading taken right after
     * run() returns includes the batch tail.
     */
    std::uint64_t
    idleNanos() const
    {
        return idleNs.load();
    }

    /** The hardware thread count (at least 1). */
    static unsigned defaultWorkers();

  private:
    void workerLoop(unsigned self);
    /** Run every index left in the batch, own stripe first. */
    void drain(unsigned self);

    unsigned numWorkers;
    /** Stripe w's cursor: how many of its indices were claimed. */
    std::vector<std::atomic<std::size_t>> cursors;

    std::mutex mu;
    std::condition_variable workCv;  ///< Wakes parked workers.
    std::condition_variable doneCv;  ///< Wakes waiting run() calls.
    // The current batch, guarded by mu (fn == nullptr: none).
    const std::function<void(std::size_t)> *batchFn = nullptr;
    std::size_t batchSize = 0;
    std::uint64_t batchNumber = 0;   ///< Bumped once per batch.
    unsigned busyWorkers = 0;        ///< Still draining this batch.
    bool stopping = false;
    /** Per worker, guarded by mu: parked since, uncharged to idleNs. */
    std::vector<std::chrono::steady_clock::time_point> parkedSince;

    std::atomic<std::uint64_t> steals{0};  ///< Cross-stripe takes.
    std::atomic<std::uint64_t> idleNs{0};  ///< Parked wall time.

    std::vector<std::thread> threads;
};

} // namespace cdcs

#endif // CDCS_COMMON_TASK_POOL_HH
