/**
 * @file
 * Aggregated results of one run, reported by the System facade and
 * consumed by the experiment layers and bench harnesses.
 */

#ifndef CDCS_SIM_RUN_RESULT_HH
#define CDCS_SIM_RUN_RESULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mesh/mesh.hh"
#include "net/noc_model.hh"
#include "runtime/cdcs_runtime.hh"
#include "sim/energy.hh"

namespace cdcs
{

/**
 * One epoch of the dynamic-traffic / metrics trace. Recorded for
 * every epoch (warmup included) whenever the traffic layer is
 * attached or a `stats=` selection is active; empty otherwise.
 */
struct EpochRecord
{
    int epoch = 0;
    /** Active (non-departed) threads during this epoch. */
    int activeThreads = 0;
    /** Net arrivals (+) / departures (-) applied entering it. */
    int churnDelta = 0;
    /** Sum of instrs / mean cycles over the active threads. */
    double aggIpc = 0.0;
    /** Threads re-placed by this epoch's reconfiguration. */
    int placementMoves = 0;
    /** Lines moved or invalidated by this epoch's reconfiguration. */
    std::uint64_t movedLines = 0;
    /**
     * StatRegistry deltas since the previous sampled epoch, one per
     * RunResult::statNames entry. Empty on epochs the `statsEvery`
     * schedule skipped (and always when stats are off).
     */
    std::vector<std::uint64_t> stats;

    bool operator==(const EpochRecord &) const = default;
};

/** Aggregated results of one run (post-warmup unless noted). */
struct RunResult
{
    std::vector<double> threadInstrs;
    std::vector<double> threadCycles;
    std::vector<double> threadIpc;
    /** Per-process throughput: sum(instrs) / max(cycles). */
    std::vector<double> procThroughput;

    double totalInstrs = 0.0;
    double wallCycles = 0.0;

    std::uint64_t llcAccesses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t demandMoves = 0;
    std::uint64_t moveProbes = 0;
    std::uint64_t memAccesses = 0;
    /** Subset of memAccesses served by the far tier (0 = no far tier). */
    std::uint64_t farMemAccesses = 0;
    std::uint64_t instantMoved = 0;
    std::uint64_t bulkInvalidated = 0;
    std::uint64_t bgInvalidated = 0;
    Cycles pausedCycles = 0;
    int reconfigs = 0;
    RuntimeStepTimes avgTimes;

    double onChipLatSum = 0.0;  ///< L2<->LLC network cycles.
    double offChipLatSum = 0.0; ///< Memory + LLC<->mem network cycles.
    double farOffChipLatSum = 0.0; ///< Far-tier share of offChipLatSum.

    std::array<std::uint64_t, 3> trafficFlitHops = {0, 0, 0};

    /**
     * Per-link loads (post-warmup); empty under network models that
     * don't track links (zero-load). Feeds the link-load heatmaps.
     */
    std::vector<NocLinkStat> nocLinks;

    /**
     * Pages migrated over the whole run (warmup included; 0 for the
     * static policies): controller re-pins by the placement policy
     * plus tier promotions/demotions by the tiering policy.
     */
    std::uint64_t memMigratedPages = 0;

    // ---- Far-memory tiering (all 0 when no far tier is configured).
    /** Pages promoted far -> near over the run (warmup included). */
    std::uint64_t tierPromotions = 0;
    /** Pages demoted near -> far over the run (warmup included). */
    std::uint64_t tierDemotions = 0;
    /** Pages resident in the far tier at the end of the run. */
    std::uint64_t farResidentPages = 0;
    /** Pages the tiering policy tracked (near + far) at the end. */
    std::uint64_t tieredPages = 0;

    /** Share of memory accesses served by the far tier. */
    double
    farAccessShare() const
    {
        return memAccesses > 0
            ? static_cast<double>(farMemAccesses) /
                static_cast<double>(memAccesses)
            : 0.0;
    }

    EnergyBreakdown energy;

    /** Aggregate-IPC trace (whole run, no warmup trim). */
    std::vector<double> ipcTrace;
    Cycles ipcBinCycles = 0;

    /**
     * Memory accesses served per controller (post-warmup); the
     * skew_sweep study's load-imbalance signal.
     */
    std::vector<std::uint64_t> memCtrlAccesses;

    /** Per-epoch dynamic-traffic trace (whole run, no warmup trim). */
    std::vector<EpochRecord> epochTrace;

    /**
     * Names of the stats sampled into EpochRecord::stats (sorted;
     * empty when the run recorded none). Column header of the
     * metrics-trace export.
     */
    std::vector<std::string> statNames;

    /** Max/mean per-controller memory load; 0 with no accesses. */
    double memCtrlImbalance() const;

    /**
     * Weighted-speedup-recovery latency after the churn event at
     * `event_epoch`: epochs until per-active-thread IPC first
     * reaches `threshold` x its settled value (the last epoch before
     * the next churn event, or the end of the run). Returns -1 when
     * the trace has no such epoch or the settled IPC is zero.
     */
    int recoveryEpochsAfter(int event_epoch,
                            double threshold = 0.95) const;

    /**
     * Reconfiguration latency after the churn event at `event_epoch`:
     * epochs (counting the event epoch) until thread placement stops
     * changing, within the same window recoveryEpochsAfter uses.
     * 0 means the placement never moved after the event; -1 when the
     * trace has no such epoch.
     */
    int reconfigLatencyAfter(int event_epoch) const;

    /** Epochs of churn (nonzero churnDelta), in trace order. */
    std::vector<int> churnEpochs() const;

    /**
     * Field-wise equality. avgTimes is wall-clock: clear it before
     * comparing two separate simulations of one cell.
     */
    bool operator==(const RunResult &) const = default;

    double
    avgOnChipLatency() const
    {
        return llcAccesses > 0 ? onChipLatSum / llcAccesses : 0.0;
    }

    double
    offChipLatPerInstr() const
    {
        return totalInstrs > 0 ? offChipLatSum / totalInstrs : 0.0;
    }

    double
    flitHopsPerInstr(TrafficClass cls) const
    {
        return totalInstrs > 0
            ? trafficFlitHops[static_cast<std::size_t>(cls)] /
                totalInstrs
            : 0.0;
    }
};

} // namespace cdcs

#endif // CDCS_SIM_RUN_RESULT_HH
