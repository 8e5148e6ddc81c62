/**
 * @file
 * Pluggable capacity-tiering policies: the second level of the
 * two-level memory placement decision. A MemPlacementPolicy answers
 * which controller fronts a page; a MemTieringPolicy answers which
 * tier behind that controller serves it — near DRAM or the far
 * (CXL-style) pool — and drives page promotion/demotion between the
 * tiers at epoch boundaries.
 *
 * The hot-path query is onAccess(line, ctrl), called once per memory
 * access by MemPlacementPolicy::placementFor when a tiering policy is
 * attached (never when the far tier is off, so the no-far-tier
 * configuration stays byte-identical to pre-tier binaries). Epoch
 * dynamics run in epochUpdate, driven by the EpochController right
 * after the mem-placement epoch update, and charge migration flits
 * through both tiers' attach links via recordPageMigration.
 *
 * Two built-ins ship:
 *  - "static": a deterministic salted-hash capacity split — a page is
 *    far iff its hash lands inside the far fraction. No migrations;
 *    the control arm of the tiering study.
 *  - "hotness": seeds new pages from the same hash split (so the
 *    cold-start behavior matches the static arm), EWMA-ranks pages by
 *    measured access counts, and each epoch swaps the hottest far
 *    rows against the coldest near rows — with a promotion-margin
 *    hysteresis, a per-page cooldown, and a DRAM-row migration budget
 *    like the contention placement policy.
 */

#ifndef CDCS_MEM_MEM_TIERING_HH
#define CDCS_MEM_MEM_TIERING_HH

#include <cstdint>
#include <vector>

#include "common/page_map.hh"
#include "common/types.hh"
#include "mem/mem_tier.hh"
#include "mesh/mesh.hh"
#include "net/noc_model.hh"

namespace cdcs
{

/** Tuning parameters of the tiering policies (from SystemConfig). */
struct MemTieringParams
{
    /**
     * Fraction of pages resident in the far tier (cfg.farMemRatio).
     * Platform only builds a tiering policy when it is positive.
     */
    double farRatio = 0.0;
    /**
     * EWMA factor blending each epoch's measured page access counts
     * into the scored hotness (cfg.monitorSmoothing, like the other
     * epoch-feedback loops).
     */
    double smoothing = 0.5;
    /**
     * A far page is only promoted over a near victim when its scored
     * hotness exceeds the victim's by this factor (hysteresis against
     * ping-pong on noise-level differences).
     */
    double promoteMargin = 2.0;
    /** Epochs a moved page sits out before it may move again. */
    int cooldownEpochs = 2;
    /**
     * DRAM rows promoted (and, symmetrically, demoted) per epoch.
     * With dramRowShift = 2 this bounds each direction at
     * rowBudget * 4 pages — though hot pages hash to scattered page
     * numbers, so in practice each budgeted row carries about one
     * page and the budget is roughly a page count. Tier moves get a
     * much larger budget than the contention policy's re-pin
     * throttle (4 rows): a capacity tier misplacing a hot page costs
     * hundreds of cycles per miss, not a few hops, so chasing the
     * hot set harder pays for itself.
     */
    int rowBudget = 64;
};

/** Interface of a capacity-tiering policy. */
class MemTieringPolicy
{
  public:
    MemTieringPolicy(const Mesh &mesh, const MemTieringParams &params);
    virtual ~MemTieringPolicy() = default;

    MemTieringPolicy(const MemTieringPolicy &) = delete;
    MemTieringPolicy &operator=(const MemTieringPolicy &) = delete;

    /** The `memTiering=` value that selects it ("static", ...). */
    virtual const char *name() const = 0;

    /**
     * Tier serving `line`, fronted by controller `ctrl`. Hot path:
     * called once per memory access; stateful policies update their
     * residency map and hotness accounting here.
     */
    virtual MemTier onAccess(LineAddr line, int ctrl) = 0;

    /**
     * Epoch boundary, invoked right after the mem-placement epoch
     * update. Migrating policies promote/demote pages here and charge
     * each move's flits through both tiers' attach links; the static
     * policy ignores it.
     */
    virtual void
    epochUpdate(NocModel &noc, double elapsed_cycles)
    {
        (void)noc;
        (void)elapsed_cycles;
    }

    /** Pages moved between tiers over the run (either direction). */
    virtual std::uint64_t migratedPages() const { return 0; }
    /** Pages promoted far -> near over the run. */
    virtual std::uint64_t promotions() const { return 0; }
    /** Pages demoted near -> far over the run. */
    virtual std::uint64_t demotions() const { return 0; }
    /** Pages currently resident in the far tier. */
    virtual std::uint64_t farResidentPages() const = 0;
    /** Pages the policy has seen (near + far). */
    virtual std::uint64_t trackedPages() const = 0;

  protected:
    /**
     * The deterministic salted-hash capacity split: true iff `page`'s
     * hash lands inside the far fraction. Both built-ins seed new
     * pages from this split, so the policies only diverge through
     * epoch migration — a fair comparison under identical cold
     * starts.
     */
    bool
    farBySplit(std::uint64_t page) const
    {
        // mix64 output scaled to [0, 1); the salt decorrelates the
        // split from the mesh's controller-interleave page hash.
        const double u =
            static_cast<double>(mix64(page ^ 0xFA27'11E2'D15C'0CE5ull)) *
            0x1p-64;
        return u < cfg.farRatio;
    }

    const Mesh &topo;
    MemTieringParams cfg;
};

/**
 * Static capacity split: residency is the salted page hash, nothing
 * ever moves. The far tier serves a stable farRatio sample of pages
 * regardless of how hot they are.
 */
class StaticTieringPolicy final : public MemTieringPolicy
{
  public:
    using MemTieringPolicy::MemTieringPolicy;

    const char *name() const override { return "static"; }

    MemTier
    onAccess(LineAddr line, int ctrl) override
    {
        (void)ctrl;
        const std::uint64_t page = line >> pageLineShift;
        const auto [tier, inserted] = pages.tryEmplace(page);
        if (inserted) {
            *tier = farBySplit(page) ? MemTier::Far : MemTier::Near;
            farPages += *tier == MemTier::Far ? 1 : 0;
        }
        return *tier;
    }

    std::uint64_t farResidentPages() const override
    {
        return farPages;
    }

    std::uint64_t trackedPages() const override
    {
        return pages.size();
    }

  private:
    /** page -> tier (tracked only for the occupancy stats). */
    PageMap<MemTier> pages;
    std::uint64_t farPages = 0;
};

/**
 * Hotness-ranked tiering: pages seed from the hash split, every
 * access bumps the page's epoch count, and each epoch the policy
 * EWMA-blends the counts into a scored hotness and swaps the hottest
 * far rows against the coldest near rows (1:1, so the capacity split
 * holds), under the promotion margin, the per-page cooldown and the
 * DRAM-row budget. Each move's copy burst is charged through both
 * tiers' attach links via recordPageMigration.
 *
 * Promotion candidates additionally pass a reuse filter: a far page
 * qualifies only when it was accessed in both the current and the
 * previous epoch. A page streamed through once (a scan) posts a huge
 * one-epoch miss count — a full page of line fills — that would
 * otherwise outrank every genuinely hot page, and promoting it is
 * pure waste since it is never touched again. Sustained hot pages
 * miss every epoch and pass.
 */
class HotnessTieringPolicy final : public MemTieringPolicy
{
  public:
    HotnessTieringPolicy(const Mesh &mesh,
                         const MemTieringParams &params);

    const char *name() const override { return "hotness"; }

    MemTier onAccess(LineAddr line, int ctrl) override;
    void epochUpdate(NocModel &noc, double elapsed_cycles) override;

    std::uint64_t migratedPages() const override { return migrated; }
    std::uint64_t promotions() const override { return promoted; }
    std::uint64_t demotions() const override { return demoted; }

    std::uint64_t farResidentPages() const override
    {
        return farPages;
    }

    std::uint64_t trackedPages() const override
    {
        return pages.size();
    }

  private:
    /** Per-page record, packed to 24 B (one per touched page). */
    struct PageInfo
    {
        /** EWMA-blended accesses/epoch (the scored hotness). */
        double hotness = 0.0;
        /** Accesses this epoch (cleared at each epochUpdate). */
        std::uint32_t epochAccesses = 0;
        /** Accesses in the previous epoch (the reuse filter). */
        std::uint32_t prevEpochAccesses = 0;
        /** Epoch (update count) of the last tier move, or -1. */
        std::int32_t lastMoveEpoch = -1;
        /** Controller fronting the page at its last access. */
        std::uint16_t lastCtrl = 0;
        MemTier tier = MemTier::Near;
    };
    static_assert(sizeof(PageInfo) == 24);

    PageMap<PageInfo> pages;
    std::uint64_t farPages = 0;
    std::uint64_t migrated = 0;
    std::uint64_t promoted = 0;
    std::uint64_t demoted = 0;
    bool seeded = false; ///< Hotness holds at least one epoch.
    int epochCount = 0;  ///< Updates so far (cooldown clock).
};

} // namespace cdcs

#endif // CDCS_MEM_MEM_TIERING_HH
