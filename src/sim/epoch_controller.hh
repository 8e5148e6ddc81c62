/**
 * @file
 * Epoch control layer: drives the fixed-work epoch loop (Fig. 4) —
 * issue chunks through the AccessPath, gather and EWMA-smooth the
 * runtime inputs at each epoch boundary, invoke the policy's
 * reconfiguration, apply its directive (new thread placement, pauses,
 * move accounting), reset statistics at the warmup boundary, and
 * assemble the final RunResult.
 */

#ifndef CDCS_SIM_EPOCH_CONTROLLER_HH
#define CDCS_SIM_EPOCH_CONTROLLER_HH

#include <string>
#include <vector>

#include "common/curve.hh"
#include "obs/stat_registry.hh"
#include "runtime/placement_cost.hh"
#include "sim/access_path.hh"
#include "sim/platform.hh"
#include "sim/run_result.hh"

namespace cdcs
{

/** Runs epochs and reconfigurations over an AccessPath. */
class EpochController
{
  public:
    /**
     * @param result The run's result: reset at the warmup boundary,
     *        counted into by this controller and the AccessPath, and
     *        completed by assemble().
     */
    EpochController(const SystemConfig &cfg, Platform &platform,
                    AccessPath &path, WorkloadMix &mix,
                    std::vector<TileId> &threadCore, RunResult &result);

    /** Run all epochs (warmup + measured). */
    void runEpochs();

    /** Complete the result from the post-warmup measurements. */
    void assemble();

  private:
    /** Snapshot monitor curves + access matrix for the runtime. */
    RuntimeInput gatherRuntimeInput();
    /** Apply a reconfiguration directive to the live system. */
    void applyDirective(const EpochDirective &directive);
    /**
     * Apply the churn events entering `epoch` (departures free their
     * threads' demand; arrivals reactivate them) and return the net
     * thread delta. No-op (returns 0) without a traffic schedule.
     */
    int applyChurn(int epoch);

    const SystemConfig &cfg;
    Platform &platform;
    AccessPath &path;
    WorkloadMix &mix;
    std::vector<TileId> &threadCore;
    RunResult &result;

    /// Post-warmup sums of the reconfiguration step times (averaged
    /// into RunResult::avgTimes).
    RuntimeStepTimes timeSums;

    /// Per-thread instruction/cycle counts at the warmup boundary.
    std::vector<double> instrOffset;
    std::vector<double> cycleOffset;

    // EWMA-smoothed runtime inputs.
    std::vector<Curve> smoothedCurves;
    std::vector<std::vector<double>> smoothedAccess;

    /// Effective-distance snapshot the gathered RuntimeInput points
    /// at; rebuilt from the live NocModel at each gather (after the
    /// NoC's contention refresh, so placement prices the same waits
    /// the access path will pay).
    PlacementCostModel placementCost;

    // Reconfiguration/walk timing.
    double reconfigStartMean = 0.0;

    /// Mean active cycles at the last NoC contention refresh.
    double nocEpochStartMean = 0.0;

    // ---- Dynamic-traffic bookkeeping (inert without a schedule).

    /// Per-thread instr/cycle snapshots at each epoch's start (the
    /// epoch trace's IPC deltas).
    std::vector<double> epochStartInstr;
    std::vector<double> epochStartCycles;
    /// Thread moves / line moves of the latest reconfiguration.
    int lastPlacementMoves = 0;
    std::uint64_t lastMovedLines = 0;
    /// Whole-run per-epoch trace (assembled into the RunResult).
    std::vector<EpochRecord> trace;

    // ---- Metrics-trace bookkeeping (inert without `stats=`).

    /// Resolved `stats=` selection and its (sorted) names.
    std::vector<StatId> statSel;
    std::vector<std::string> statNames;
    /// This thread's registry shard at the last sampled epoch. The
    /// whole run executes on one worker thread, so local deltas
    /// attribute stats to this run even under a parallel sweep.
    StatRegistry::Snapshot statBase;
};

} // namespace cdcs

#endif // CDCS_SIM_EPOCH_CONTROLLER_HH
