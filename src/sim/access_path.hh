/**
 * @file
 * Per-access dynamics layer: drives one LLC access end to end through
 * the platform (policy mapping, bank lookup, demand moves, memory),
 * accounts latency/traffic/stats, models the memory-bandwidth queue,
 * and keeps the first-touch NUMA page map. Owns the per-thread core
 * clocks and the per-epoch access matrix the EpochController feeds to
 * the runtime.
 */

#ifndef CDCS_SIM_ACCESS_PATH_HH
#define CDCS_SIM_ACCESS_PATH_HH

#include <vector>

#include "sim/core_model.hh"
#include "sim/platform.hh"
#include "sim/run_result.hh"
#include "workload/mix.hh"

namespace cdcs
{

/** The hot path: issues accesses and accrues timing state. */
class AccessPath
{
  public:
    /**
     * @param threadCore Live thread-to-core map (updated between
     *        epochs by the EpochController).
     * @param result The run's result, whose access counters this path
     *        bumps (the EpochController resets it at the warmup
     *        boundary and completes it at the end).
     */
    AccessPath(const SystemConfig &cfg, Platform &platform,
               WorkloadMix &mix, std::vector<TileId> &threadCore,
               RunResult &result);

    /** Issue one access of thread t through the LLC. */
    void issueAccess(ThreadId t);

    /** Start a chunk: reset the per-chunk miss counter. */
    void beginChunk();

    /**
     * End a chunk: refresh the M/D/m memory queueing delays from the
     * miss rates observed between mean active cycles `before` and
     * `after` — one queue per tier, each sized by its own channel
     * count and service rate, so far-tier pressure never inflates the
     * near queue (and vice versa).
     */
    void endChunk(double before, double after);

    /**
     * Mean active cycles over the active thread clocks (all of them
     * on the static-traffic path; departed tenants' frozen clocks
     * are excluded under churn).
     */
    double meanActiveCycles() const;

    /// Per-thread performance state.
    std::vector<CoreClock> clocks;
    /// accessMatrix[t][vc]: accesses this epoch (runtime input).
    std::vector<std::vector<double>> accessMatrix;
    /// Aggregate-instruction bins for the IPC trace (traceIpc).
    std::vector<double> ipcBins;

  private:
    /**
     * The memory leg of an LLC miss on `line` by `core`: the request
     * travels from tile `from` to the line's controller, the response
     * from the controller to tile `to`. The platform's
     * MemPlacementPolicy picks the controller and, through the
     * attached tiering policy, the near or far tier (always near
     * with no far tier). Charges both messages, counts the access
     * against its tier and controller, and returns the leg's latency.
     */
    double memoryLeg(TileId core, LineAddr line, TileId from, TileId to);

    const SystemConfig &cfg;
    Platform &platform;
    WorkloadMix &mix;
    std::vector<TileId> &threadCore;
    RunResult &result;

    // Memory-bandwidth queueing state, per tier. chunkMisses counts
    // near-tier misses only once a far tier is on; with no far tier
    // every miss is near and the arithmetic is the legacy one.
    double queueDelay = 0.0;
    double farQueueDelay = 0.0;
    std::uint64_t chunkMisses = 0;
    std::uint64_t chunkFarMisses = 0;

    std::uint64_t monitorTrafficSampleCtr = 0;
};

} // namespace cdcs

#endif // CDCS_SIM_ACCESS_PATH_HH
