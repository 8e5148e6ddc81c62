#include "mem/mem_placement.hh"

#include <algorithm>

#include "mem/mem_migration.hh"

namespace cdcs
{

D2ChoiceMemPlacement::D2ChoiceMemPlacement(const Mesh &mesh,
                                           double smoothing_)
    : MemPlacementPolicy(mesh),
      smoothing(std::clamp(smoothing_, 0.05, 1.0))
{
    const auto ctrls = static_cast<std::size_t>(mesh.numMemCtrls());
    ctrlLoad.assign(ctrls, 0.0);
    epochAccesses.assign(ctrls, 0);
}

int
D2ChoiceMemPlacement::controllerFor(TileId core, LineAddr line)
{
    (void)core;
    const std::uint64_t page = line >> pageLineShift;
    const auto [pin, inserted] = pageCtrl.tryEmplace(page);
    if (inserted) {
        // Two independent hash candidates; pin to the lighter one.
        // The first is the interleave hash, so with balanced load the
        // policy degenerates to interleaving.
        const int c1 = topo.memCtrlOf(line);
        const int c2 = static_cast<int>(
            mix64(page * 0x9E3779B97F4A7C15ull ^ 0xD15C'CACEull) %
            static_cast<std::uint64_t>(ctrlLoad.size()));
        const auto load = [&](int c) {
            const auto i = static_cast<std::size_t>(c);
            return ctrlLoad[i] + static_cast<double>(epochAccesses[i]);
        };
        *pin = load(c2) < load(c1) ? c2 : c1;
    }
    const auto c = static_cast<std::size_t>(*pin);
    epochAccesses[c]++;
    return *pin;
}

void
D2ChoiceMemPlacement::epochUpdate(NocModel &noc,
                                  double elapsed_cycles)
{
    (void)noc;
    (void)elapsed_cycles;
    const double alpha = seeded ? smoothing : 1.0;
    for (std::size_t c = 0; c < ctrlLoad.size(); c++) {
        ctrlLoad[c] = alpha * static_cast<double>(epochAccesses[c]) +
            (1.0 - alpha) * ctrlLoad[c];
        epochAccesses[c] = 0;
    }
    seeded = true;
}

ContentionMemPlacement::ContentionMemPlacement(
    const Mesh &mesh, ContentionMemPlacementParams params)
    : MemPlacementPolicy(mesh), cfg(params)
{
    // monitorSmoothing is a free-range user knob; keep the blend
    // factor usable whatever it is set to.
    cfg.smoothing = std::clamp(cfg.smoothing, 0.05, 1.0);
    const auto ctrls =
        static_cast<std::size_t>(mesh.numMemCtrls());
    cdcs_assert(ctrls <= UINT16_MAX, "page records hold 16-bit controllers");
    ctrlLoad.assign(ctrls, 0.0);
    epochAccesses.assign(ctrls, 0);
}

int
ContentionMemPlacement::controllerFor(TileId core, LineAddr line)
{
    const auto [slot, inserted] =
        pages.tryEmplace(line >> pageLineShift);
    PageInfo &info = *slot;
    if (inserted) {
        info.ctrl =
            static_cast<std::uint16_t>(topo.nearestMemCtrl(core));
    }
    info.lastCore = core;
    info.epochAccesses++;
    const auto c = static_cast<std::size_t>(info.ctrl);
    epochAccesses[c]++;
    return info.ctrl;
}

void
ContentionMemPlacement::epochUpdate(NocModel &noc,
                                    double elapsed_cycles)
{
    (void)elapsed_cycles;
    const std::size_t ctrls = ctrlLoad.size();

    // Blend this epoch's measured loads into the scored loads.
    const double alpha = seeded ? cfg.smoothing : 1.0;
    double total = 0.0;
    for (std::size_t c = 0; c < ctrls; c++) {
        ctrlLoad[c] = alpha * static_cast<double>(epochAccesses[c]) +
            (1.0 - alpha) * ctrlLoad[c];
        total += ctrlLoad[c];
        epochAccesses[c] = 0;
    }
    seeded = true;

    const double mean = total / static_cast<double>(ctrls);
    const auto reset_epoch = [](std::uint64_t, PageInfo &info) {
        info.epochAccesses = 0;
    };
    if (mean <= 0.0) {
        pages.forEach(reset_epoch);
        return;
    }

    // Hottest pages currently pinned to an overloaded controller,
    // hottest first; page id breaks ties so the rebalance never
    // depends on the page map's slot order.
    const double overload = cfg.overloadFactor * mean;
    std::vector<std::pair<std::uint64_t, PageInfo *>> hot;
    pages.forEach([&](std::uint64_t page, PageInfo &info) {
        if (info.epochAccesses > 0 &&
            ctrlLoad[info.ctrl] > overload &&
            (info.lastMoveEpoch < 0 ||
             epochCount - info.lastMoveEpoch >= cfg.cooldownEpochs))
            hot.push_back({page, &info});
    });
    std::sort(hot.begin(), hot.end(),
              [](const auto &a, const auto &b) {
                  if (a.second->epochAccesses !=
                      b.second->epochAccesses)
                      return a.second->epochAccesses >
                          b.second->epochAccesses;
                  return a.first < b.first;
              });

    // Spend the migration budget in DRAM rows, not pages: rank rows
    // by their summed hotness and keep whole rows, so the copy engine
    // streams row-buffer hits instead of scattered single pages.
    {
        std::vector<std::uint64_t> cand_pages;
        std::vector<double> cand_weights;
        cand_pages.reserve(hot.size());
        cand_weights.reserve(hot.size());
        for (const auto &[page, info] : hot) {
            cand_pages.push_back(page);
            cand_weights.push_back(
                static_cast<double>(info->epochAccesses));
        }
        const std::vector<std::size_t> kept = rowBudgetSelect(
            cand_pages, cand_weights, cfg.migrateRowBudget);
        std::vector<std::pair<std::uint64_t, PageInfo *>> selected;
        selected.reserve(kept.size());
        for (const std::size_t i : kept)
            selected.push_back(hot[i]);
        hot = std::move(selected);
    }

    const double ctrl_flits =
        static_cast<double>(topo.config().ctrlFlits());
    const double data_flits =
        static_cast<double>(topo.config().dataFlits());
    const double msg_flits = ctrl_flits + data_flits;
    for (const auto &[page, info] : hot) {
        const TileId anchor = info->lastCore;
        // Per-flit cost of serving the page's accesses from
        // controller c: zero-load distance, the measured route waits
        // (blended over the request/response directions by their
        // flit shares, like the runtime's cost oracle), and the
        // relative-load projection. Everything but the projection is
        // a cost the access path actually pays.
        const auto route_wait = [&](int c) {
            return (ctrl_flits * noc.memPathWait(anchor, c) +
                    data_flits * noc.memResponsePathWait(c, anchor)) /
                msg_flits;
        };
        const auto score = [&](int c) {
            return cfg.hopCycles *
                static_cast<double>(topo.hopsToCtrl(anchor, c)) +
                route_wait(c) +
                cfg.loadPenalty *
                ctrlLoad[static_cast<std::size_t>(c)] / mean;
        };
        int best = info->ctrl;
        double best_score = score(best);
        for (std::size_t c = 0; c < ctrls; c++) {
            const double s = score(static_cast<int>(c));
            if (s < best_score) {
                best_score = s;
                best = static_cast<int>(c);
            }
        }
        // Move only when the score gain clears the hysteresis margin
        // AND some of it is measured congestion relief: count
        // imbalance alone (e.g. under a zero-load network) is not
        // worth the copy traffic.
        if (best == info->ctrl ||
            score(info->ctrl) - best_score < cfg.migrateMargin ||
            route_wait(info->ctrl) <= route_wait(best))
            continue;

        // Shift the page's load to the destination before scoring
        // the next candidate, so one epoch's migrations spread over
        // controllers instead of stampeding the single best one. The
        // blend weighted this epoch's counts by alpha, so the shift
        // must too (and never below zero), or a hot page could drive
        // the vacated controller's scored load negative.
        const double load =
            alpha * static_cast<double>(info->epochAccesses);
        auto &src_load = ctrlLoad[info->ctrl];
        src_load = std::max(0.0, src_load - load);
        ctrlLoad[static_cast<std::size_t>(best)] += load;

        recordPageMigration(noc, topo, info->ctrl, MemTier::Near,
                            best, MemTier::Near, migrated);
        info->ctrl = static_cast<std::uint16_t>(best);
        info->lastMoveEpoch = epochCount;
    }

    epochCount++;
    pages.forEach(reset_epoch);
}

} // namespace cdcs
