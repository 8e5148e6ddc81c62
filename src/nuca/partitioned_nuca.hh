/**
 * @file
 * The partitioned-NUCA substrate shared by Jigsaw and CDCS: per-VC
 * descriptors over bank-partitioned LLC banks, descriptor-based
 * access spreading, and the three reconfiguration move schemes of
 * Sec. IV-H (instant moves, Jigsaw-style bulk invalidations, and CDCS
 * demand moves with background invalidations).
 *
 * The policy delegates the *decision* (allocation sizes, VC placement,
 * thread placement) to a ReconfigRuntime and handles the *mechanism*
 * here: building descriptors from allocations, programming bank
 * partition targets, shadow descriptors, and walking banks.
 *
 * The hardware keeps a per-core VTB (Fig. 3) holding a current and a
 * shadow descriptor for each of the three VCs its thread may access.
 * Every VTB copy of a VC's descriptor is the same, so the model keeps
 * one current and one previous (shadow) descriptor per VC and checks
 * each access against the thread's VC wiring, as a VTB lookup would.
 */

#ifndef CDCS_NUCA_PARTITIONED_NUCA_HH
#define CDCS_NUCA_PARTITIONED_NUCA_HH

#include <memory>
#include <vector>

#include "cache/partitioned_bank.hh"
#include "nuca/policy.hh"
#include "virtcache/vc_descriptor.hh"

namespace cdcs
{

/** VCs a thread can access: thread-private, per-process, global. */
struct ThreadVcWiring
{
    VcId privateVc;
    VcId processVc;
    VcId globalVc;
};

/** Configuration of the partitioned-NUCA mechanism. */
struct PartitionedNucaConfig
{
    MoveScheme moves = MoveScheme::DemandBackground;

    /** Background walker: cycles per set walked (Sec. IV-H). */
    Cycles walkCyclesPerSet = 200;

    /** Background walker start delay after a reconfiguration. */
    Cycles walkDelay = 50000;

    /** Bulk invalidation walk cost per set (pause contribution). */
    Cycles bulkCyclesPerSet = 200;

    /**
     * Allocation hysteresis: a VC keeps its previous descriptor and
     * bank targets when the new allocation differs by less than this
     * fraction of its size. Suppresses descriptor churn from monitor
     * noise, which would otherwise move/invalidate whole VCs every
     * epoch for no benefit.
     */
    double allocHysteresis = 0.25;
};

/**
 * The partitioned-NUCA policy. One instance owns the mapping state of
 * the whole chip: per-VC descriptors and, during reconfigurations,
 * the shadow descriptors and walk cursors.
 */
class PartitionedNucaPolicy : public NucaPolicy
{
  public:
    /**
     * @param mesh Topology (not owned).
     * @param banks_per_tile LLC banks per tile.
     * @param bank_lines Lines per bank.
     * @param bank_sets Sets per bank (for walk timing).
     * @param wiring Per-thread VC wiring.
     * @param num_vcs Total VC count.
     * @param runtime Reconfiguration decision-maker (not owned).
     * @param cfg Mechanism parameters.
     */
    PartitionedNucaPolicy(const Mesh *mesh, int banks_per_tile,
                          std::uint64_t bank_lines,
                          std::uint32_t bank_sets,
                          std::vector<ThreadVcWiring> wiring,
                          int num_vcs, ReconfigRuntime *runtime,
                          PartitionedNucaConfig cfg = {});

    /**
     * Home bank of `line` in `vc`, and its shadow home while a walk is
     * active. Panics when `vc` is none of the thread's three VCs (the
     * protection fault a VTB miss raises).
     */
    MapResult map(ThreadId thread, TileId core, VcId vc,
                  LineAddr line) override;

    VcId
    partitionTag(VcId vc) const override
    {
        return vc;
    }

    EpochDirective endEpoch(const RuntimeInput &input,
                            std::vector<PartitionedBank> &banks) override;

    std::uint64_t advanceWalk(Cycles elapsed,
                              std::vector<PartitionedBank> &banks) override;

    bool
    demandMovesActive() const override
    {
        return walkActive;
    }

    bool wantsMonitors() const override { return true; }

    /** Current allocation matrix alloc[vc][bank] (lines). */
    const std::vector<std::vector<double>> &allocation() const
    {
        return currentAlloc;
    }

  private:
    /** Home bank of a line under the current descriptors. */
    TileId
    homeBank(VcId vc, LineAddr line) const
    {
        return descriptors[vc].bankOf(line);
    }

    /** Build descriptors + bank targets from an allocation matrix. */
    void applyAllocation(const std::vector<std::vector<double>> &alloc,
                         std::vector<PartitionedBank> &banks);

    /** Relocate every out-of-place line right now (Instant). */
    std::uint64_t
    relocateInstant(std::vector<PartitionedBank> &banks);

    /** Invalidate every out-of-place line right now (Bulk). */
    std::uint64_t
    invalidateBulk(std::vector<PartitionedBank> &banks);

    const Mesh *mesh;
    int banksPerTile;
    std::uint64_t bankLines;
    std::uint32_t bankSets;
    std::vector<ThreadVcWiring> wiring;
    int numVcs;
    ReconfigRuntime *runtime;
    PartitionedNucaConfig cfg;

    std::vector<VcDescriptor> descriptors;  ///< Current, per VC.
    /// Per VC, the descriptor before the latest reconfiguration: the
    /// shadow a demand move chases while the walk is active.
    std::vector<VcDescriptor> previous;
    std::vector<std::vector<double>> currentAlloc;
    bool configured = false;

    // Background-walk state.
    bool walkActive = false;
    std::uint32_t setsWalked = 0;
};

} // namespace cdcs

#endif // CDCS_NUCA_PARTITIONED_NUCA_HH
