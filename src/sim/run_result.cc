/**
 * @file
 * Derived elasticity metrics over the dynamic-traffic epoch trace:
 * how long after a churn event the system takes to recover its
 * per-thread throughput and to stop re-placing threads, plus the
 * per-controller memory load imbalance the skew studies report.
 */

#include "sim/run_result.hh"

#include <algorithm>

namespace cdcs
{

namespace
{

/**
 * The trace window a churn event is judged in: [event, next churn
 * event or end of trace). Returns indices into `trace`; first == -1
 * when the event epoch is not in the trace.
 */
std::pair<int, int>
eventWindow(const std::vector<EpochRecord> &trace, int event_epoch)
{
    int first = -1;
    int last = -1;
    for (std::size_t i = 0; i < trace.size(); i++) {
        const EpochRecord &rec = trace[i];
        if (rec.epoch < event_epoch)
            continue;
        if (first < 0 && rec.epoch == event_epoch)
            first = static_cast<int>(i);
        if (first < 0)
            break; // Event epoch absent from the trace.
        if (rec.epoch > event_epoch && rec.churnDelta != 0)
            break; // Next churn event starts a new window.
        last = static_cast<int>(i);
    }
    return {first, last};
}

} // namespace

double
RunResult::memCtrlImbalance() const
{
    std::uint64_t total = 0;
    std::uint64_t peak = 0;
    for (std::uint64_t n : memCtrlAccesses) {
        total += n;
        peak = std::max(peak, n);
    }
    if (total == 0 || memCtrlAccesses.empty())
        return 0.0;
    const double mean_load = static_cast<double>(total) /
        static_cast<double>(memCtrlAccesses.size());
    return static_cast<double>(peak) / mean_load;
}

int
RunResult::recoveryEpochsAfter(int event_epoch,
                               double threshold) const
{
    const auto [first, last] = eventWindow(epochTrace, event_epoch);
    if (first < 0)
        return -1;
    const EpochRecord &settled =
        epochTrace[static_cast<std::size_t>(last)];
    const double target = settled.activeThreads > 0
        ? settled.aggIpc / settled.activeThreads
        : 0.0;
    if (target <= 0.0)
        return -1;
    for (int i = first; i <= last; i++) {
        const EpochRecord &rec =
            epochTrace[static_cast<std::size_t>(i)];
        const double ipc = rec.activeThreads > 0
            ? rec.aggIpc / rec.activeThreads
            : 0.0;
        if (ipc >= threshold * target)
            return rec.epoch - event_epoch;
    }
    return -1;
}

int
RunResult::reconfigLatencyAfter(int event_epoch) const
{
    const auto [first, last] = eventWindow(epochTrace, event_epoch);
    if (first < 0)
        return -1;
    int latency = 0;
    for (int i = first; i <= last; i++) {
        const EpochRecord &rec =
            epochTrace[static_cast<std::size_t>(i)];
        if (rec.placementMoves > 0)
            latency = rec.epoch - event_epoch + 1;
    }
    return latency;
}

std::vector<int>
RunResult::churnEpochs() const
{
    std::vector<int> epochs;
    for (const EpochRecord &rec : epochTrace) {
        if (rec.churnDelta != 0)
            epochs.push_back(rec.epoch);
    }
    return epochs;
}

} // namespace cdcs
