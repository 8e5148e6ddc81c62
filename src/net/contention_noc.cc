#include "net/contention_noc.hh"

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

} // anonymous namespace

ContentionNoc::ContentionNoc(const Mesh &mesh, double inj_scale,
                             double max_util, bool far_links)
    : NocModel(mesh), injScale(inj_scale), maxUtil(max_util),
      farLinks(far_links),
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
    linkFlits.assign(links, 0);
    prevFlits.assign(links, 0);
    linkWait.assign(links, 0.0);
    linkUtil.assign(links, 0.0);
    rebuildWaitTables();
}

double
ContentionNoc::walkPathWait(TileId src, TileId dst) const
{
    double wait = 0.0;
    walkRoute(src, dst,
              [&](std::size_t link) { wait += linkWait[link]; });
    return wait;
}

double
ContentionNoc::pathWait(TileId src, TileId dst) const
{
    return waitTbl[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(topo.numTiles()) +
                   dst];
}

void
ContentionNoc::rebuildWaitTables()
{
    const std::size_t tiles =
        static_cast<std::size_t>(topo.numTiles());
    const std::size_t ctrls =
        static_cast<std::size_t>(topo.numMemCtrls());
    waitTbl.assign(tiles * tiles, 0.0);
    memReqTbl.assign(tiles * ctrls, 0.0);
    memRespTbl.assign(ctrls * tiles, 0.0);

    // All-pairs route waits, built by extending each source's walks
    // one link at a time. Floating-point addition is not associative,
    // so instead of prefix-sum differences every entry continues the
    // exact left-to-right accumulation walkPathWait performs: the
    // X leg sweeps east/west accumulating incrementally, and each Y
    // leg continues from its column's X-leg total. Every table entry
    // is therefore the same addition sequence as the walk —
    // bit-identical, not just close.
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

    // Memory legs: the route wait plus (or after) the attach link, in
    // the same order the unflattened memPathWait/memResponsePathWait
    // added them.
    for (std::size_t c = 0; c < ctrls; c++) {
        const TileId ctrl_tile =
            topo.memCtrlTile(static_cast<int>(c));
        const double attach =
            linkWait[attachLink(static_cast<int>(c))];
        for (std::size_t t = 0; t < tiles; t++) {
            memReqTbl[t * ctrls + c] =
                waitTbl[t * tiles + ctrl_tile] + attach;
            memRespTbl[c * tiles + t] =
                attach + waitTbl[static_cast<std::size_t>(ctrl_tile) *
                                     tiles +
                                 t];
        }
    }

    // Far legs share the mesh route and substitute the far attach
    // link's wait for the near one.
    if (farLinks) {
        farReqTbl.assign(tiles * ctrls, 0.0);
        farRespTbl.assign(ctrls * tiles, 0.0);
        for (std::size_t c = 0; c < ctrls; c++) {
            const TileId ctrl_tile =
                topo.memCtrlTile(static_cast<int>(c));
            const double attach =
                linkWait[farAttachLink(static_cast<int>(c))];
            for (std::size_t t = 0; t < tiles; t++) {
                farReqTbl[t * ctrls + c] =
                    waitTbl[t * tiles + ctrl_tile] + attach;
                farRespTbl[c * tiles + t] = attach +
                    waitTbl[static_cast<std::size_t>(ctrl_tile) *
                                tiles +
                            t];
            }
        }
    }
}

double
ContentionNoc::latency(TileId src, TileId dst,
                       std::uint32_t payload_flits) const
{
    return static_cast<double>(
               topo.latency(topo.hops(src, dst), payload_flits)) +
        pathWait(src, dst);
}

double
ContentionNoc::memPathWait(TileId tile, int ctrl) const
{
    return memReqTbl[static_cast<std::size_t>(tile) *
                         static_cast<std::size_t>(
                             topo.numMemCtrls()) +
                     static_cast<std::size_t>(ctrl)];
}

double
ContentionNoc::memResponsePathWait(int ctrl, TileId tile) const
{
    return memRespTbl[static_cast<std::size_t>(ctrl) *
                          static_cast<std::size_t>(topo.numTiles()) +
                      tile];
}

double
ContentionNoc::farMemPathWait(TileId tile, int ctrl) const
{
    if (!farLinks)
        return memPathWait(tile, ctrl);
    return farReqTbl[static_cast<std::size_t>(tile) *
                         static_cast<std::size_t>(
                             topo.numMemCtrls()) +
                     static_cast<std::size_t>(ctrl)];
}

double
ContentionNoc::farMemResponsePathWait(int ctrl, TileId tile) const
{
    if (!farLinks)
        return memResponsePathWait(ctrl, tile);
    return farRespTbl[static_cast<std::size_t>(ctrl) *
                          static_cast<std::size_t>(topo.numTiles()) +
                      tile];
}

double
ContentionNoc::memLatency(TileId tile, int ctrl,
                          std::uint32_t payload_flits) const
{
    return static_cast<double>(
               topo.latency(topo.hopsToCtrl(tile, ctrl),
                            payload_flits)) +
        memPathWait(tile, ctrl);
}

double
ContentionNoc::memResponseLatency(int ctrl, TileId tile,
                                  std::uint32_t payload_flits) const
{
    // Response direction: attach link, then the X-Y route from the
    // controller's tile — the links routeMemResponse charges.
    return static_cast<double>(
               topo.latency(topo.hopsToCtrl(tile, ctrl),
                            payload_flits)) +
        memResponsePathWait(ctrl, tile);
}

double
ContentionNoc::farMemLatency(TileId tile, int ctrl,
                             std::uint32_t payload_flits) const
{
    return static_cast<double>(
               topo.latency(topo.hopsToCtrl(tile, ctrl),
                            payload_flits)) +
        farMemPathWait(tile, ctrl);
}

double
ContentionNoc::farMemResponseLatency(int ctrl, TileId tile,
                                     std::uint32_t payload_flits)
    const
{
    return static_cast<double>(
               topo.latency(topo.hopsToCtrl(tile, ctrl),
                            payload_flits)) +
        farMemResponsePathWait(ctrl, tile);
}

void
ContentionNoc::routeMsg(TileId src, TileId dst, std::uint32_t flits)
{
    walkRoute(src, dst,
              [&](std::size_t link) { linkFlits[link] += flits; });
}

void
ContentionNoc::routeMemMsg(TileId tile, int ctrl,
                           std::uint32_t flits)
{
    routeMsg(tile, topo.memCtrlTile(ctrl), flits);
    linkFlits[attachLink(ctrl)] += flits;
}

void
ContentionNoc::routeMemResponse(int ctrl, TileId tile,
                                std::uint32_t flits)
{
    // The attach link models the controller port and carries both
    // directions; the mesh legs of the response use the
    // reverse-direction links of the request route.
    linkFlits[attachLink(ctrl)] += flits;
    routeMsg(topo.memCtrlTile(ctrl), tile, flits);
}

void
ContentionNoc::routeFarMemMsg(TileId tile, int ctrl,
                              std::uint32_t flits)
{
    if (!farLinks) {
        routeMemMsg(tile, ctrl, flits);
        return;
    }
    routeMsg(tile, topo.memCtrlTile(ctrl), flits);
    linkFlits[farAttachLink(ctrl)] += flits;
}

void
ContentionNoc::routeFarMemResponse(int ctrl, TileId tile,
                                   std::uint32_t flits)
{
    if (!farLinks) {
        routeMemResponse(ctrl, tile, flits);
        return;
    }
    linkFlits[farAttachLink(ctrl)] += flits;
    routeMsg(topo.memCtrlTile(ctrl), tile, flits);
}

void
ContentionNoc::closeEpoch(double elapsed_cycles, bool refresh)
{
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
}

void
ContentionNoc::epochUpdate(double elapsed_cycles)
{
    closeEpoch(elapsed_cycles, true);
    // Waits changed: reflatten the route-wait tables once, so every
    // access-path query until the next epoch stays a table read.
    rebuildWaitTables();
}

void
ContentionNoc::finalEpoch(double elapsed_cycles)
{
    closeEpoch(elapsed_cycles, false);
}

void
ContentionNoc::clearTraffic()
{
    NocModel::clearTraffic();
    // Reset the counters but keep the wait/utilization tables: at the
    // warmup boundary the contention estimate from the last warmup
    // epoch is the best predictor for the first measured epoch.
    std::fill(linkFlits.begin(), linkFlits.end(), 0);
    std::fill(prevFlits.begin(), prevFlits.end(), 0);
}

std::vector<NocLinkStat>
ContentionNoc::linkStats() const
{
    std::vector<NocLinkStat> out;
    out.reserve(linkFlits.size());
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
            const std::size_t link = meshLink(t, dir);
            stat.flits = linkFlits[link];
            stat.util = linkUtil[link];
            stat.waitCycles = linkWait[link];
            out.push_back(stat);
        }
    }
    for (int ctrl = 0; ctrl < topo.numMemCtrls(); ctrl++) {
        NocLinkStat stat;
        stat.src = topo.memCtrlTile(ctrl);
        stat.dst = invalidTile;
        stat.memCtrl = ctrl;
        const std::size_t link = attachLink(ctrl);
        stat.flits = linkFlits[link];
        stat.util = linkUtil[link];
        stat.waitCycles = linkWait[link];
        out.push_back(stat);
    }
    if (farLinks) {
        for (int ctrl = 0; ctrl < topo.numMemCtrls(); ctrl++) {
            NocLinkStat stat;
            stat.src = topo.memCtrlTile(ctrl);
            stat.dst = invalidTile;
            stat.memCtrl = ctrl;
            stat.far = true;
            const std::size_t link = farAttachLink(ctrl);
            stat.flits = linkFlits[link];
            stat.util = linkUtil[link];
            stat.waitCycles = linkWait[link];
            out.push_back(stat);
        }
    }
    return out;
}

} // namespace cdcs
