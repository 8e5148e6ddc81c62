/**
 * @file
 * The epoch-driven system simulator: a tiled CMP (Fig. 3, Table 2)
 * with one core + one or more partitioned LLC banks per tile, an X-Y
 * mesh NoC, edge memory controllers, per-VC monitors and a pluggable
 * NUCA policy. Drives a WorkloadMix in fixed-work epochs, invoking the
 * policy's reconfiguration between epochs (Fig. 4).
 *
 * System is a thin facade over three layers (see ARCHITECTURE.md):
 *
 *  - Platform: hardware construction (mesh, banks, monitors, policy,
 *    runtime, initial thread schedule);
 *  - AccessPath: the per-access hot path (policy mapping, demand
 *    moves, memory-bandwidth queueing, NUMA page map, stats);
 *  - EpochController: the epoch loop (runtime-input gathering, EWMA
 *    smoothing, reconfiguration directives, result assembly).
 */

#ifndef CDCS_SIM_SYSTEM_HH
#define CDCS_SIM_SYSTEM_HH

#include <vector>

#include "nuca/partitioned_nuca.hh"
#include "sim/access_path.hh"
#include "sim/epoch_controller.hh"
#include "sim/platform.hh"
#include "sim/run_result.hh"
#include "sim/system_config.hh"
#include "workload/mix.hh"

namespace cdcs
{

/**
 * One simulated system: builds the platform for a scheme, runs the
 * mix, and reports RunResult.
 */
class System
{
  public:
    /**
     * @param cfg Platform/methodology parameters.
     * @param spec Scheme under test.
     * @param mix Workload (moved in; rebuilt per run by callers that
     *        compare schemes, so streams are identical across runs).
     */
    System(const SystemConfig &cfg, const SchemeSpec &spec,
           WorkloadMix mix);

    /** Run all epochs and report. */
    RunResult run();

    /** Thread-to-core map (inspection; valid after construction). */
    const std::vector<TileId> &threadPlacement() const
    {
        return threadCore;
    }

    /** The policy (inspection/tests). */
    NucaPolicy &policy() { return *platform.policy; }

    /** Per-VC allocation of the last reconfiguration, if partitioned. */
    const PartitionedNucaPolicy *partitionedPolicy() const;

    const Mesh &meshRef() const { return platform.mesh; }
    const WorkloadMix &workload() const { return mix; }

  private:
    SystemConfig cfg;
    SchemeSpec spec;
    WorkloadMix mix;
    Platform platform;
    RunResult result;
    std::vector<TileId> threadCore;
    AccessPath path;
    EpochController controller;
};

} // namespace cdcs

#endif // CDCS_SIM_SYSTEM_HH
