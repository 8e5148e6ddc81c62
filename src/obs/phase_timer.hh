/**
 * @file
 * Host-time accounting of the coarse simulator phases behind `--set
 * timing=1`. A scoped PhaseTimer charges its lifetime, in
 * nanoseconds, to the phase's `time.*` StatRegistry counter and
 * brackets it with a tracer span of the phase's name, so the timing
 * footer, the execution trace and (under an explicit `stats=time`)
 * the metrics trace all read one set of counters.
 *
 * Timers wrap whole epochs and store round trips, never single
 * accesses, so turning timing on does not perturb the run it
 * measures. Per-layer host time is perfbench's business. Disabled
 * (the default) a timer is two relaxed atomic loads.
 */

#ifndef CDCS_OBS_PHASE_TIMER_HH
#define CDCS_OBS_PHASE_TIMER_HH

#include <chrono>

#include "obs/stat_registry.hh"

namespace cdcs
{

/** Coarse simulator phases the timing footer breaks down. */
enum class Phase : int
{
    Access = 0,  ///< An epoch's access loop (`time.access_ns`).
    Reconfig,    ///< An epoch boundary (`time.reconfig_ns`).
    StoreIo,     ///< Result-store load/save (`time.store_io_ns`).
};

/** The registry counter `phase` is charged to. */
StatId phaseStat(Phase phase);

/**
 * Scoped timer: charges its lifetime to `phaseStat(phase)` while the
 * registry is enabled and emits an `access`/`reconfig`/`cache-io`
 * span while a trace file is open.
 */
class PhaseTimer
{
  public:
    explicit PhaseTimer(Phase phase);
    ~PhaseTimer();

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    Phase phase;
    bool counting;
    bool tracing;
    std::chrono::steady_clock::time_point start;
};

} // namespace cdcs

#endif // CDCS_OBS_PHASE_TIMER_HH
