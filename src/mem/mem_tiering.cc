#include "mem/mem_tiering.hh"

#include <algorithm>
#include <cstddef>

#include "mem/mem_migration.hh"

namespace cdcs
{

MemTieringPolicy::MemTieringPolicy(const Mesh &mesh,
                                   const MemTieringParams &params)
    : topo(mesh), cfg(params)
{
}

HotnessTieringPolicy::HotnessTieringPolicy(
    const Mesh &mesh, const MemTieringParams &params)
    : MemTieringPolicy(mesh, params)
{
    cdcs_assert(mesh.numMemCtrls() <= UINT16_MAX,
                "page records hold 16-bit controllers");
}

MemTier
HotnessTieringPolicy::onAccess(LineAddr line, int ctrl)
{
    const std::uint64_t page = line >> pageLineShift;
    const auto [slot, inserted] = pages.tryEmplace(page);
    PageInfo &info = *slot;
    if (inserted) {
        // Seed from the same hash split as the static policy: both
        // arms of the tiering study start from identical residency
        // and only diverge through epoch migration.
        info.tier = farBySplit(page) ? MemTier::Far : MemTier::Near;
        if (info.tier == MemTier::Far)
            farPages++;
    }
    info.epochAccesses++;
    info.lastCtrl = static_cast<std::uint16_t>(ctrl);
    return info.tier;
}

void
HotnessTieringPolicy::epochUpdate(NocModel &noc,
                                  double elapsed_cycles)
{
    (void)elapsed_cycles;
    epochCount++;

    struct Candidate
    {
        std::uint64_t page = 0;
        double hotness = 0.0;
        PageInfo *info = nullptr;
    };
    std::vector<Candidate> far_hot;  ///< Promotion candidates.
    std::vector<Candidate> near_cold; ///< Demotion victims.

    const double alpha = seeded ? cfg.smoothing : 1.0;
    // Candidates are sorted below with a page-id tiebreak before any
    // order-sensitive use, so the page map's slot order never shows.
    pages.forEach([&](std::uint64_t page, PageInfo &info) {
        info.hotness =
            alpha * static_cast<double>(info.epochAccesses) +
            (1.0 - alpha) * info.hotness;
        // The reuse filter: accessed both this epoch and last epoch.
        // One-shot scan pages post a full page of line fills in one
        // epoch and never return; promoting them is pure waste.
        const bool reused =
            info.epochAccesses > 0 && info.prevEpochAccesses > 0;
        info.prevEpochAccesses = info.epochAccesses;
        info.epochAccesses = 0;
        const bool cooled =
            info.lastMoveEpoch < 0 ||
            epochCount - info.lastMoveEpoch > cfg.cooldownEpochs;
        if (!cooled)
            return;
        if (info.tier == MemTier::Far) {
            if (reused)
                far_hot.push_back({page, info.hotness, &info});
        } else {
            near_cold.push_back({page, info.hotness, &info});
        }
    });
    seeded = true;
    if (far_hot.empty() || near_cold.empty())
        return;

    const auto hotter = [](const Candidate &a, const Candidate &b) {
        if (a.hotness != b.hotness)
            return a.hotness > b.hotness;
        return a.page < b.page;
    };
    const auto colder = [](const Candidate &a, const Candidate &b) {
        if (a.hotness != b.hotness)
            return a.hotness < b.hotness;
        return a.page < b.page;
    };
    std::sort(far_hot.begin(), far_hot.end(), hotter);
    std::sort(near_cold.begin(), near_cold.end(), colder);

    // Hysteresis: pair the hottest far page against the coldest near
    // victim and only swap while the far page clearly dominates. The
    // first failing pair ends the scan — later pairs are even closer.
    std::size_t swappable = 0;
    const std::size_t pairs =
        std::min(far_hot.size(), near_cold.size());
    while (swappable < pairs &&
           far_hot[swappable].hotness >
               cfg.promoteMargin * near_cold[swappable].hotness &&
           far_hot[swappable].hotness > 0.0) {
        swappable++;
    }
    if (swappable == 0)
        return;
    far_hot.resize(swappable);
    near_cold.resize(swappable);

    // Spend the migration budget in DRAM rows on each side: hottest
    // far rows first, coldest near rows first (negated weights flip
    // rowBudgetSelect's descending rank).
    std::vector<std::uint64_t> ppages, dpages;
    std::vector<double> pweights, dweights;
    for (const Candidate &c : far_hot) {
        ppages.push_back(c.page);
        pweights.push_back(c.hotness);
    }
    for (const Candidate &c : near_cold) {
        dpages.push_back(c.page);
        dweights.push_back(-c.hotness);
    }
    const std::vector<std::size_t> promo =
        rowBudgetSelect(ppages, pweights, cfg.rowBudget);
    const std::vector<std::size_t> demo =
        rowBudgetSelect(dpages, dweights, cfg.rowBudget);

    // 1:1 swaps keep the far-resident count at the hash-seeded
    // equilibrium; each page move streams through both tiers' attach
    // links at the page's own fronting controller.
    const std::size_t moves = std::min(promo.size(), demo.size());
    for (std::size_t i = 0; i < moves; i++) {
        PageInfo &up = *far_hot[promo[i]].info;
        PageInfo &down = *near_cold[demo[i]].info;
        recordPageMigration(noc, topo, up.lastCtrl, MemTier::Far,
                            up.lastCtrl, MemTier::Near, migrated);
        recordPageMigration(noc, topo, down.lastCtrl, MemTier::Near,
                            down.lastCtrl, MemTier::Far, migrated);
        up.tier = MemTier::Near;
        down.tier = MemTier::Far;
        up.lastMoveEpoch = epochCount;
        down.lastMoveEpoch = epochCount;
        promoted++;
        demoted++;
    }
}

} // namespace cdcs
