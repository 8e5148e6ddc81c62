/**
 * @file
 * The traced replay: re-drives one job's access stream through each
 * simulator layer's public calls, one phase per layer per replay
 * chunk, so a single span per layer per chunk attributes host time to
 * that layer without a clock read per call.
 *
 * The replay follows the simulator's access path (sim/access_path.cc)
 * and epoch loop (sim/epoch_controller.cc) but is not a copy of them:
 * it batches each layer's calls over a chunk, defers a chunk's fills
 * until all of its probes are done (a line that misses twice in one
 * chunk is filled once, probed again after the chunk's fills and
 * counted a hit the second time), feeds the
 * runtime unsmoothed monitor inputs, and keeps no statistics beyond
 * the counts below. Its simulated counts are therefore close to, not
 * equal to, the in-situ run's; they repeat exactly run to run.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "sim/experiment.hh"
#include "spans.hh"

namespace perfbench
{

/** Calls and outcomes counted by the replay, per layer. */
struct ReplayCounts
{
    std::uint64_t accesses = 0;         ///< LLC accesses (all epochs).
    std::uint64_t measuredAccesses = 0; ///< After warmup.
    std::uint64_t monitorCalls = 0;
    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
    std::uint64_t fills = 0;            ///< fill + installMoved calls.
    std::uint64_t evictions = 0;
    std::uint64_t demandMoves = 0;
    std::uint64_t pageFlushes = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t farAccesses = 0;
    std::uint64_t netQueries = 0;
    std::uint64_t netAccounts = 0;
    std::uint64_t measuredFlitHops = 0;
    std::uint64_t epochUpdates = 0;     ///< Epoch boundaries replayed.
    std::uint64_t migrations = 0;       ///< Pages re-pinned or re-tiered.

    void add(const ReplayCounts &o);
};

/** Reconfiguration samples of the replay. */
struct RuntimeSamples
{
    /// Wall ms of each NucaPolicy::endEpoch that reconfigured (timed
    /// whether spans are on or off).
    std::vector<double> endEpochMs;
    /// Sums of EpochDirective::times over CDCS reconfigurations.
    double allocUs = 0.0;
    double threadUs = 0.0;
    double dataUs = 0.0;
    int cdcsReconfigs = 0;
};

/**
 * Replay one job. Spans go to `rec` (configured by the caller).
 * @return Wall nanoseconds of the replay loop (platform construction
 *         excluded).
 */
double replayJob(const cdcs::SystemConfig &cfg,
                 const cdcs::SchemeSpec &scheme,
                 const cdcs::MixSpec &mix, SpanRecorder &rec,
                 ReplayCounts &counts, RuntimeSamples &runtime);

/** Build a job's mix the way System does (traffic layer attached). */
cdcs::WorkloadMix buildJobMix(const cdcs::SystemConfig &cfg,
                              const cdcs::MixSpec &mix);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
