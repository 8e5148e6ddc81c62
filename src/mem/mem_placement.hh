/**
 * @file
 * Pluggable page-to-memory-controller placement. The access path asks
 * a MemPlacementPolicy which controller serves each line instead of
 * hard-coding the page-interleave hash, so the policy can range from
 * the paper's interleaving to first-touch NUMA placement to a
 * contention-aware rebalancer that re-pins hot pages away from
 * saturated controllers each epoch (the memory-side counterpart of
 * the Fig. 11d discussion's future work).
 *
 * The hot-path query is placementFor(core, line), a two-level
 * decision: the policy's controllerFor picks the controller (the
 * classic page-to-controller mapping), and the attached
 * MemTieringPolicy — when a far memory tier is configured — picks the
 * capacity tier behind it. With no tiering policy attached every
 * placement pins MemTier::Near and the decision collapses to the
 * legacy controller-only mapping, bit for bit. Policies keep whatever
 * page map and per-controller accounting they need. Epoch dynamics
 * run in epochUpdate, driven by the EpochController right after the
 * NoC's contention refresh, so a rebalancing policy scores
 * controllers on the same measured route waits the access path will
 * pay — and charges the migration traffic it causes back to the NoC.
 */

#ifndef CDCS_MEM_MEM_PLACEMENT_HH
#define CDCS_MEM_MEM_PLACEMENT_HH

#include <cstdint>
#include <vector>

#include "common/page_map.hh"
#include "common/types.hh"
#include "mem/mem_tier.hh"
#include "mem/mem_tiering.hh"
#include "mesh/mesh.hh"
#include "net/noc_model.hh"

namespace cdcs
{

/** Interface of a page-to-controller placement policy. */
class MemPlacementPolicy
{
  public:
    explicit MemPlacementPolicy(const Mesh &mesh) : topo(mesh) {}
    virtual ~MemPlacementPolicy() = default;

    MemPlacementPolicy(const MemPlacementPolicy &) = delete;
    MemPlacementPolicy &operator=(const MemPlacementPolicy &) = delete;

    /**
     * The `memPlacement=` value that selects the policy
     * ("interleave", "first-touch", "d2choice", "contention").
     */
    virtual const char *name() const = 0;

    /**
     * Controller serving `line` when accessed from `core`. Hot path:
     * called once per memory access; stateful policies update their
     * page map and load accounting here.
     */
    virtual int controllerFor(TileId core, LineAddr line) = 0;

    /**
     * The full two-level placement of `line`: the policy's controller
     * decision plus the attached tiering policy's residency decision.
     * With no tiering attached (no far tier configured) the tier pins
     * MemTier::Near and this is exactly controllerFor.
     */
    MemPlacement
    placementFor(TileId core, LineAddr line)
    {
        MemPlacement p;
        p.ctrl = controllerFor(core, line);
        if (tiering != nullptr)
            p.tier = tiering->onAccess(line, p.ctrl);
        return p;
    }

    /**
     * Attach the capacity-tiering policy deciding near/far residency
     * behind the controllers. Platform calls this once, at build
     * time, only when a far tier is configured; the policy outlives
     * this object's use (Platform owns both).
     */
    void attachTiering(MemTieringPolicy *t) { tiering = t; }

    /** The attached tiering policy, or nullptr (no far tier). */
    MemTieringPolicy *tieringPolicy() const { return tiering; }

    /**
     * Epoch boundary, invoked right after the NoC's contention
     * refresh with the epoch's mean active cycles. Rebalancing
     * policies re-pin pages here and charge the migration traffic to
     * `noc`; static policies ignore it.
     */
    virtual void
    epochUpdate(NocModel &noc, double elapsed_cycles)
    {
        (void)noc;
        (void)elapsed_cycles;
    }

    /** Pages re-pinned over the run (0 for static policies). */
    virtual std::uint64_t migratedPages() const { return 0; }

  protected:
    const Mesh &topo;

  private:
    /** Tier decider behind the controllers; nullptr = all near. */
    MemTieringPolicy *tiering = nullptr;
};

/**
 * Page-interleaved placement (the default): the Mesh's page hash,
 * byte-identical to the pre-policy-layer behavior.
 */
class InterleaveMemPlacement final : public MemPlacementPolicy
{
  public:
    using MemPlacementPolicy::MemPlacementPolicy;

    const char *name() const override { return "interleave"; }

    int
    controllerFor(TileId core, LineAddr line) override
    {
        (void)core;
        return topo.memCtrlOf(line);
    }
};

/**
 * First-touch NUMA placement: a page is pinned to the controller
 * nearest the first core that touches it (the NUMA-aware extension
 * Sec. III leaves to future work).
 */
class FirstTouchMemPlacement final : public MemPlacementPolicy
{
  public:
    using MemPlacementPolicy::MemPlacementPolicy;

    const char *name() const override { return "first-touch"; }

    int
    controllerFor(TileId core, LineAddr line) override
    {
        const auto [ctrl, inserted] =
            pageCtrl.tryEmplace(line >> pageLineShift);
        if (inserted)
            *ctrl = topo.nearestMemCtrl(core);
        return *ctrl;
    }

  private:
    /** First-touch page-to-controller map. */
    PageMap<int> pageCtrl;
};

/**
 * Power-of-two-choices placement (DistCache-style, PAPERS.md): each
 * page is pinned at first touch to the lighter-loaded of two
 * independent hash candidates — the default interleave hash and a
 * second salted page hash. Per-controller load is the EWMA-blended
 * access count the policy itself observes, so under skewed traffic
 * the d2 draw statistically evens controller load without any page
 * migration (pins never change after first touch).
 */
class D2ChoiceMemPlacement final : public MemPlacementPolicy
{
  public:
    D2ChoiceMemPlacement(const Mesh &mesh, double smoothing);

    const char *name() const override { return "d2choice"; }

    int controllerFor(TileId core, LineAddr line) override;
    void epochUpdate(NocModel &noc, double elapsed_cycles) override;

  private:
    double smoothing;
    /** First-touch page-to-controller pins. */
    PageMap<int> pageCtrl;
    /** EWMA-blended accesses/epoch per controller. */
    std::vector<double> ctrlLoad;
    /** Accesses per controller this epoch. */
    std::vector<std::uint64_t> epochAccesses;
    bool seeded = false; ///< ctrlLoad holds at least one epoch.
};

/** Tuning parameters of the contention-aware policy. */
struct ContentionMemPlacementParams
{
    /** Cycles per mesh hop (router + link) in the distance term. */
    double hopCycles = 4.0;
    /**
     * EWMA factor blending each epoch's measured controller loads
     * into the scored loads (1.0 = raw epoch values); mirrors the
     * runtime's monitorSmoothing so the placement<->load feedback
     * loop converges for stationary workloads.
     */
    double smoothing = 0.5;
    /**
     * DRAM rows of hot pages considered for migration per epoch
     * (rowBudgetSelect groups candidates by row and spends the
     * budget in whole rows, preferring row-buffer-friendly bulk
     * moves). Each copy's flit burst crosses both controllers'
     * attach links (scaled by the injection knob like all measured
     * traffic), so a small per-epoch budget amortized over hot rows
     * wins; large budgets spend more on copies than the steering
     * recovers (measured on the mem_placement study lineup). At 4
     * pages per row this bounds an epoch at 16 pages — the magnitude
     * the pre-row-throttle flat page budget was tuned to.
     */
    int migrateRowBudget = 4;
    /** A controller is overloaded above this multiple of the mean. */
    double overloadFactor = 1.15;
    /**
     * A page only moves when the score improves by this many cycles
     * (hysteresis against churn on noise-level imbalance).
     */
    double migrateMargin = 2.0;
    /**
     * Cycles charged per unit of relative controller load
     * (load / mean) in the candidate score. The measured route waits
     * lag one epoch and saturate at the clamp, so this projection
     * term is what keeps one epoch's migrations from stampeding the
     * single coolest controller.
     */
    double loadPenalty = 4.0;
    /**
     * Epochs a migrated page sits out before it may move again.
     * Shared pages' distance anchors flap between accessors; without
     * a cooldown they ping-pong between controllers and the copy
     * traffic eats the steering gain.
     */
    int cooldownEpochs = 2;
};

/**
 * Contention-aware placement: first-touch pinning plus an epoch
 * rebalance. Every access updates per-page and per-controller load
 * counters; each epoch the policy EWMA-blends the measured loads,
 * finds overloaded controllers, and re-pins their hottest pages to
 * the controller minimizing distance + measured NoC route wait +
 * a projected relative-load penalty, charging each migrated page's
 * flit traffic (read out of the old controller, route, write into
 * the new one) to the NoC.
 */
class ContentionMemPlacement final : public MemPlacementPolicy
{
  public:
    ContentionMemPlacement(const Mesh &mesh,
                           ContentionMemPlacementParams params);

    const char *name() const override { return "contention"; }

    int controllerFor(TileId core, LineAddr line) override;
    void epochUpdate(NocModel &noc, double elapsed_cycles) override;

    std::uint64_t migratedPages() const override { return migrated; }

  private:
    /** Per-page record, packed to 12 B (one per touched page). */
    struct PageInfo
    {
        /** Accesses this epoch (cleared at each rebalance). */
        std::uint32_t epochAccesses = 0;
        /** Epoch (rebalance count) of the last migration, or -1. */
        std::int32_t lastMoveEpoch = -1;
        /** Most recent accessor this epoch (the distance anchor). */
        TileId lastCore = 0;
        /** Controller the page is pinned to. */
        std::uint16_t ctrl = 0;
    };
    static_assert(sizeof(PageInfo) == 12);

    ContentionMemPlacementParams cfg;
    PageMap<PageInfo> pages;
    /** EWMA-blended accesses/epoch per controller (scored loads). */
    std::vector<double> ctrlLoad;
    /** Accesses per controller this epoch. */
    std::vector<std::uint64_t> epochAccesses;
    std::uint64_t migrated = 0;
    bool seeded = false; ///< ctrlLoad holds at least one epoch.
    int epochCount = 0;  ///< Rebalances so far (cooldown clock).
};

} // namespace cdcs

#endif // CDCS_MEM_MEM_PLACEMENT_HH
