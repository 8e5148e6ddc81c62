#include "net/noc_model.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/stat_registry.hh"

namespace cdcs
{

namespace
{

// Per-epoch NoC stats: flits offered across all links, and links the
// M/D/1 estimator clamped at the saturation limit.
const StatId kNocLinkFlits = StatRegistry::counter("noc.link_flits");
const StatId kNocSaturatedLinks =
    StatRegistry::counter("noc.saturated_links");

/** Directed link leaving a tile, in routing order. */
enum Dir : int
{
    East = 0,
    West,
    South,
    North
};

/** Link index of the `dir` link leaving `tile`. */
std::size_t
meshLink(TileId tile, int dir)
{
    return static_cast<std::size_t>(tile) * 4 +
        static_cast<std::size_t>(dir);
}

/**
 * Walk the X-Y route src -> dst, applying `fn(link)` per link. The
 * route is X-first (dimension-ordered), matching the hop count
 * Mesh::hops reports.
 */
template <typename Fn>
void
walkRoute(const Mesh &topo, TileId src, TileId dst, Fn &&fn)
{
    const MeshCoord a = topo.coordOf(src);
    const MeshCoord b = topo.coordOf(dst);
    int x = a.x;
    int y = a.y;
    while (x != b.x) {
        const int dir = b.x > x ? East : West;
        fn(meshLink(topo.tileAt(x, y), dir));
        x += b.x > x ? 1 : -1;
    }
    while (y != b.y) {
        const int dir = b.y > y ? South : North;
        fn(meshLink(topo.tileAt(x, y), dir));
        y += b.y > y ? 1 : -1;
    }
}

} // anonymous namespace

NocModel::NocModel(const Mesh &mesh, double inj_scale, double max_util,
                   bool far_links)
    : topo(mesh), contention(true), injScale(inj_scale),
      maxUtil(max_util), farLinks(far_links),
      attachBase(static_cast<std::size_t>(mesh.numTiles()) * 4)
{
    cdcs_assert(injScale > 0.0, "injection scale must be positive");
    cdcs_assert(maxUtil > 0.0 && maxUtil < 1.0,
                "utilization clamp must be in (0, 1)");
    // Far attach links, when configured, occupy a second controller
    // block after the near attach block; with no far tier the link
    // population (and everything derived from it) is unchanged.
    const std::size_t links = attachBase +
        static_cast<std::size_t>(mesh.numMemCtrls()) *
            (farLinks ? 2 : 1);
    pairFlits.assign(static_cast<std::size_t>(mesh.numTiles()) *
                         static_cast<std::size_t>(mesh.numTiles()),
                     0);
    linkFlits.assign(links, 0);
    prevFlits.assign(links, 0);
    linkWait.assign(links, 0.0);
    linkUtil.assign(links, 0.0);
    rebuildWaitTable();
}

double
NocModel::walkPathWait(TileId src, TileId dst) const
{
    double wait = 0.0;
    if (contention) {
        walkRoute(topo, src, dst,
                  [&](std::size_t link) { wait += linkWait[link]; });
    }
    return wait;
}

void
NocModel::rebuildWaitTable()
{
    const std::size_t tiles =
        static_cast<std::size_t>(topo.numTiles());
    waitTbl.assign(tiles * tiles, 0.0);

    // All-pairs route waits, built by extending each source's walks
    // one link at a time. Floating-point addition is not associative,
    // so instead of prefix-sum differences every entry continues the
    // exact left-to-right accumulation walkPathWait performs: the
    // X leg sweeps east/west accumulating incrementally, and each Y
    // leg continues from its column's X-leg total. Every table entry
    // is therefore the same addition sequence as the walk —
    // bit-identical, not just close. A memory leg adds its attach
    // wait to an entry at query time, in the leg's direction.
    const int w = topo.width();
    const int h = topo.height();
    for (std::size_t s = 0; s < tiles; s++) {
        double *row = &waitTbl[s * tiles];
        const MeshCoord a = topo.coordOf(static_cast<TileId>(s));
        for (int step = 0; step < 2; step++) {
            // step 0: columns east of (and at) a.x; step 1: west.
            const int dx = step == 0 ? 1 : -1;
            const int x_dir = step == 0 ? East : West;
            double x_wait = 0.0;
            for (int x = a.x; x >= 0 && x < w; x += dx) {
                if (x != a.x) {
                    // One more X hop: the link leaving the previous
                    // column's tile in this row.
                    x_wait += linkWait[meshLink(
                        topo.tileAt(x - dx, a.y), x_dir)];
                }
                row[topo.tileAt(x, a.y)] = x_wait;
                // Y legs: continue the accumulation down and up this
                // column, in the walk's south/north order.
                double y_wait = x_wait;
                for (int y = a.y + 1; y < h; y++) {
                    y_wait += linkWait[meshLink(
                        topo.tileAt(x, y - 1), South)];
                    row[topo.tileAt(x, y)] = y_wait;
                }
                y_wait = x_wait;
                for (int y = a.y - 1; y >= 0; y--) {
                    y_wait += linkWait[meshLink(
                        topo.tileAt(x, y + 1), North)];
                    row[topo.tileAt(x, y)] = y_wait;
                }
            }
        }
    }
}

void
NocModel::foldPairs(std::vector<std::uint64_t> &flits) const
{
    const auto tiles = static_cast<std::size_t>(topo.numTiles());
    for (std::size_t p = 0; p < pairFlits.size(); p++) {
        const std::uint64_t f = pairFlits[p];
        if (f == 0)
            continue;
        walkRoute(topo, static_cast<TileId>(p / tiles),
                  static_cast<TileId>(p % tiles),
                  [&](std::size_t link) { flits[link] += f; });
    }
}

void
NocModel::closeEpoch(double elapsed_cycles, bool refresh)
{
    if (!contention)
        return;
    foldPairs(linkFlits);
    std::fill(pairFlits.begin(), pairFlits.end(), 0);
    const double cycles = std::max(elapsed_cycles, 1.0);
    const double service =
        static_cast<double>(topo.config().linkCycles);
    std::uint64_t epoch_flits = 0;
    std::uint64_t saturated = 0;
    for (std::size_t l = 0; l < linkFlits.size(); l++) {
        epoch_flits += linkFlits[l] - prevFlits[l];
        const double delta = static_cast<double>(
            linkFlits[l] - prevFlits[l]);
        prevFlits[l] = linkFlits[l];
        // Link bandwidth is one flit per linkCycles: utilization is
        // offered flits/cycle times the per-flit service time, scaled
        // by the injection-rate knob and clamped below saturation.
        const double rho = std::min(
            maxUtil, injScale * (delta / cycles) * service);
        if (rho >= maxUtil)
            saturated++;
        if (refresh) {
            // M/D/1 mean waiting time with deterministic service.
            linkWait[l] = service * rho / (2.0 * (1.0 - rho));
            linkUtil[l] = rho;
        }
    }
    StatRegistry::add(kNocLinkFlits, epoch_flits);
    StatRegistry::add(kNocSaturatedLinks, saturated);
    // Waits changed: reflatten the route waits once, so every
    // access-path query until the next epoch stays a table read.
    if (refresh)
        rebuildWaitTable();
}

void
NocModel::clearTraffic()
{
    flitHops.fill(0);
    std::fill(pairFlits.begin(), pairFlits.end(), 0);
    std::fill(linkFlits.begin(), linkFlits.end(), 0);
    std::fill(prevFlits.begin(), prevFlits.end(), 0);
}

std::vector<NocLinkStat>
NocModel::linkStats() const
{
    if (!contention)
        return {};
    // Pending pairs count as traffic: fold them into a copy, so a
    // mid-epoch snapshot matches per-message accounting and the
    // epoch state stays untouched.
    std::vector<std::uint64_t> flits = linkFlits;
    foldPairs(flits);
    std::vector<NocLinkStat> out;
    out.reserve(flits.size());
    const auto add = [&](NocLinkStat stat, std::size_t link) {
        stat.flits = flits[link];
        stat.util = linkUtil[link];
        stat.waitCycles = linkWait[link];
        out.push_back(stat);
    };
    const int w = topo.width();
    const int h = topo.height();
    for (TileId t = 0; t < topo.numTiles(); t++) {
        const MeshCoord c = topo.coordOf(t);
        const int nx[4] = {c.x + 1, c.x - 1, c.x, c.x};
        const int ny[4] = {c.y, c.y, c.y + 1, c.y - 1};
        for (int dir = 0; dir < 4; dir++) {
            if (nx[dir] < 0 || nx[dir] >= w || ny[dir] < 0 ||
                ny[dir] >= h) {
                continue; // Off-mesh: link doesn't exist.
            }
            NocLinkStat stat;
            stat.src = t;
            stat.dst = topo.tileAt(nx[dir], ny[dir]);
            add(stat, meshLink(t, dir));
        }
    }
    // The near attach block, then (with far links) the far block.
    for (const bool far : {false, true}) {
        if (far && !farLinks)
            break;
        for (int ctrl = 0; ctrl < topo.numMemCtrls(); ctrl++) {
            NocLinkStat stat;
            stat.src = topo.memCtrlTile(ctrl);
            stat.memCtrl = ctrl;
            stat.far = far;
            add(stat, attachLink(ctrl, far));
        }
    }
    return out;
}

} // namespace cdcs
