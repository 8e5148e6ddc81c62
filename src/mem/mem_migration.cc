#include "mem/mem_migration.hh"

#include <algorithm>
#include <utility>

#include "common/types.hh"
#include "obs/stat_registry.hh"

namespace cdcs
{

namespace
{

/// Pages migrated (controller re-pins + tier moves) per epoch.
const StatId kMemMigrations = StatRegistry::counter("mem.migrations");
/// Pages promoted far -> near per epoch.
const StatId kTierPromotions =
    StatRegistry::counter("mem.tier_promotions");
/// Pages demoted near -> far per epoch.
const StatId kTierDemotions =
    StatRegistry::counter("mem.tier_demotions");

} // anonymous namespace

void
recordPageMigration(NocModel &noc, const Mesh &topo, int src_ctrl,
                    MemTier src_tier, int dst_ctrl, MemTier dst_tier,
                    std::uint64_t &migrated)
{
    const std::uint32_t page_flits =
        linesPerPage * topo.config().dataFlits();
    const TileId dst_tile = topo.memCtrlTile(dst_ctrl);
    if (src_tier == MemTier::Near) {
        noc.addMemResponse(TrafficClass::Other, src_ctrl, dst_tile,
                           page_flits);
    } else {
        noc.addFarMemResponse(TrafficClass::Other, src_ctrl, dst_tile,
                              page_flits);
    }
    if (dst_tier == MemTier::Near) {
        noc.addMemTraffic(TrafficClass::Other, dst_tile, dst_ctrl,
                          page_flits);
    } else {
        noc.addFarMemTraffic(TrafficClass::Other, dst_tile, dst_ctrl,
                             page_flits);
    }
    migrated++;
    StatRegistry::add(kMemMigrations);
    if (src_tier == MemTier::Far && dst_tier == MemTier::Near)
        StatRegistry::add(kTierPromotions);
    else if (src_tier == MemTier::Near && dst_tier == MemTier::Far)
        StatRegistry::add(kTierDemotions);
}

std::vector<std::size_t>
rowBudgetSelect(const std::vector<std::uint64_t> &pages,
                const std::vector<double> &weights, int row_budget)
{
    // Sorting (row, candidate) pairs groups each row's members
    // together in candidate order, so a row's weight is summed in the
    // same order as a first-seen scan would sum it.
    std::vector<std::pair<std::uint64_t, std::size_t>> by_row;
    by_row.reserve(pages.size());
    for (std::size_t i = 0; i < pages.size(); i++)
        by_row.emplace_back(dramRowOf(pages[i]), i);
    std::sort(by_row.begin(), by_row.end());

    struct Row
    {
        std::uint64_t id = 0;
        double weight = 0.0;
        std::size_t begin = 0; ///< Members: by_row[begin, end).
        std::size_t end = 0;
    };
    std::vector<Row> rows;
    for (std::size_t k = 0; k < by_row.size(); k++) {
        if (rows.empty() || rows.back().id != by_row[k].first)
            rows.push_back(Row{by_row[k].first, 0.0, k, k});
        rows.back().weight += weights[by_row[k].second];
        rows.back().end = k + 1;
    }
    // Row ids are distinct, so (weight, id) is a total order and the
    // ranking does not depend on the order rows were found in.
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) {
                  if (a.weight != b.weight)
                      return a.weight > b.weight;
                  return a.id < b.id;
              });
    const std::size_t budget =
        static_cast<std::size_t>(row_budget < 0 ? 0 : row_budget);
    if (rows.size() > budget)
        rows.resize(budget);
    std::vector<std::size_t> kept;
    for (const Row &row : rows) {
        for (std::size_t k = row.begin; k < row.end; k++)
            kept.push_back(by_row[k].second);
    }
    return kept;
}

} // namespace cdcs
