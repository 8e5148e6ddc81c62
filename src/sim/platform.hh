/**
 * @file
 * Platform construction layer: builds the simulated hardware for one
 * run — the mesh NoC, the partitioned LLC banks, the per-VC monitors,
 * the reconfiguration runtime and the NUCA policy — plus the initial
 * (static) thread schedule. Pure construction; the per-access and
 * per-epoch dynamics live in AccessPath and EpochController.
 */

#ifndef CDCS_SIM_PLATFORM_HH
#define CDCS_SIM_PLATFORM_HH

#include <memory>
#include <vector>

#include "cache/partitioned_bank.hh"
#include "mem/mem_placement.hh"
#include "mem/mem_tiering.hh"
#include "mesh/mesh.hh"
#include "monitor/sampled_monitor.hh"
#include "net/noc_model.hh"
#include "nuca/policy.hh"
#include "runtime/cdcs_runtime.hh"
#include "sim/system_config.hh"

namespace cdcs
{

class WorkloadMix;

/** The hardware of one simulated system. */
class Platform
{
  public:
    /**
     * Build the platform for `spec` running `mix` (the mix is only
     * inspected for thread/VC wiring; the platform keeps no reference
     * to it).
     */
    Platform(const SystemConfig &cfg, const SchemeSpec &spec,
             const WorkloadMix &mix);

    Platform(const Platform &) = delete;
    Platform &operator=(const Platform &) = delete;

    int
    numBanks() const
    {
        return static_cast<int>(banks.size());
    }

    Mesh mesh;
    /// Network model (cfg.nocModel via the NocRegistry); owns the
    /// run's traffic counters and any contention state.
    std::unique_ptr<NocModel> noc;
    /// Page-to-controller placement (cfg.memPlacement via the
    /// MemPlacementRegistry); owns the page map and any
    /// per-controller load accounting.
    std::unique_ptr<MemPlacementPolicy> memPlacement;
    /// Capacity-tiering policy (cfg.memTiering via the
    /// MemTieringRegistry), attached to memPlacement; nullptr when no
    /// far tier is configured (cfg.hasFarTier() == false).
    std::unique_ptr<MemTieringPolicy> tiering;
    std::vector<PartitionedBank> banks;
    /// Per-VC monitors; empty for schemes that don't want them.
    std::vector<std::unique_ptr<SampledMonitor>> monitors;
    /// Owning pointer; referenced by `policy` when partitioned.
    std::unique_ptr<ReconfigRuntime> runtime;
    std::unique_ptr<NucaPolicy> policy;
    /// Thread-to-core map from the initial (static) scheduler.
    std::vector<TileId> initialPlacement;
};

} // namespace cdcs

#endif // CDCS_SIM_PLATFORM_HH
