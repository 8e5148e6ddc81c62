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

/// Set while a pool worker (or an inline run()) is executing tasks;
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
    : numWorkers(workers > 0 ? workers : defaultWorkers())
{
    if (numWorkers <= 1)
        return;
    deques.reserve(numWorkers);
    for (unsigned w = 0; w < numWorkers; w++)
        deques.push_back(std::make_unique<ChaseLevDeque>());
    threads.reserve(numWorkers);
    for (unsigned w = 0; w < numWorkers; w++)
        threads.emplace_back([this, w]() { workerLoop(w); });
}

WorkStealingPool::~WorkStealingPool()
{
    if (threads.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(sleepMu);
        stopping.store(true);
    }
    workCv.notify_all();
    for (std::thread &t : threads)
        t.join();
}

bool
WorkStealingPool::runOneTask(unsigned self)
{
    // Drain the own share first (FIFO, like every steal: Chase-Lev
    // thieves take the oldest task, spreading the big, early-
    // submitted work items), then sweep the victims. A steal() that
    // loses a CAS race reports nullptr like an empty deque; that is
    // fine, because the worker re-checks `queued` before sleeping.
    ChaseLevDeque::Task *task = nullptr;
    for (unsigned i = 0; i < numWorkers && task == nullptr; i++) {
        task = deques[(self + i) % numWorkers]->steal();
        if (task != nullptr && i > 0) {
            // Found in a victim's deque, not the own share.
            steals.fetch_add(1);
        }
    }
    if (task == nullptr)
        return false;

    queued.fetch_sub(1);
    (*task)();
    if (pending.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(sleepMu);
        doneCv.notify_all();
    }
    return true;
}

void
WorkStealingPool::workerLoop(unsigned self)
{
    inside_pool = true;
    setLogWorker(static_cast<int>(self));
    Tracer::nameThread("worker-" + std::to_string(self));
    while (true) {
        if (runOneTask(self))
            continue;
        std::unique_lock<std::mutex> lock(sleepMu);
        // Publish idleness before re-checking for work: paired with
        // the submitter's queued-then-idle order (both seq_cst), a
        // worker either sees the new tasks in its predicate or is
        // counted idle and gets a notify.
        idleCount.fetch_add(1);
        const auto park = std::chrono::steady_clock::now(); // lint:allow(wallclock)
        workCv.wait(lock, [this]() {
            return stopping.load() || queued.load() > 0;
        });
        // lint:allow(wallclock): idle-time stat, reporting-only
        const auto parked = std::chrono::steady_clock::now() - park;
        const auto parked_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                parked)
                .count());
        idleNs.fetch_add(parked_ns);
        idleCount.fetch_sub(1);
        if (stopping.load())
            return;
    }
}

void
WorkStealingPool::run(std::vector<std::function<void()>> tasks)
{
    if (tasks.empty())
        return;

    // Serial pool, or a nested call from inside a worker: execute
    // inline. Inline nested execution keeps the outer task's worker
    // busy and cannot deadlock.
    if (threads.empty() || inside_pool) {
        const bool was_inside = inside_pool;
        inside_pool = true;
        for (auto &task : tasks)
            task();
        inside_pool = was_inside;
        return;
    }

    pending.fetch_add(tasks.size());
    {
        // One owner at a time per deque bottom: submitters serialize
        // here, workers only steal. `queued` is raised before the
        // pushes so a worker that steals early never underflows it;
        // a worker that wakes early at worst spins on its predicate
        // until the push lands.
        std::lock_guard<std::mutex> lock(submitMu);
        queued.fetch_add(tasks.size());
        for (auto &task : tasks) {
            const unsigned w = nextQueue.fetch_add(1) % numWorkers;
            deques[w]->push(&task);
        }
    }
    // Wake sleepers only if there are any: a submit into a fully-busy
    // pool stays notification-free (running workers sweep the deques
    // before parking). The seq_cst queued increment above is ordered
    // before this idle load; a worker increments idleCount before its
    // predicate reads queued, so either it sees the tasks or we see
    // it idle here.
    const unsigned idle = idleCount.load();
    if (idle > 0) {
        wakeups.fetch_add(1);
        {
            // Empty critical section: a worker between its idle
            // increment and its sleep holds sleepMu, so this
            // acquisition orders the notify after it is actually
            // waiting.
            std::lock_guard<std::mutex> lock(sleepMu);
        }
        if (tasks.size() == 1 || idle == 1)
            workCv.notify_one();
        else
            workCv.notify_all();
    }

    std::unique_lock<std::mutex> lock(sleepMu);
    doneCv.wait(lock, [this]() { return pending.load() == 0; });

    // The batch vector owns the task objects the deques pointed into;
    // it dies only now, after every pointer was consumed.
}

} // namespace cdcs
