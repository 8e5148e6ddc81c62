/**
 * @file
 * The network-on-chip model. The simulation layers (AccessPath,
 * EpochController) price and account every message through a NocModel
 * instead of doing Mesh latency arithmetic directly.
 *
 * One class serves both `noc=` models; whether links are counted is a
 * constructor choice. NocModel(mesh) is `zero-load`, the paper's
 * Table 2 mesh: it keeps no per-link state, every wait is 0, and only
 * the per-class flit-hop counters move. NocModel(mesh, injScale,
 * maxUtil, farLinks) is `contention`: every message is routed X-Y
 * over explicit directed links (four per tile, plus one attach link
 * per memory controller, and a second, far-tier one per controller
 * with far links), and each link is charged an M/D/1-style waiting
 * time computed at each epoch boundary from the previous epoch's
 * measured link loads.
 *
 * Accounting a message never walks its route: a mesh leg adds its
 * flits to a tiles x tiles (source, destination) pair matrix, and
 * each epoch close folds every nonzero pair onto its route's links
 * with one walk. Link counts are integer sums, so folding late gives
 * exactly the counts a per-message walk would; linkStats() folds the
 * pending pairs into its own copy, so a mid-epoch snapshot sees them
 * too.
 *
 * A latency query is the zero-load latency plus a route wait. Link
 * waits only change at epochUpdate, which flattens the per-route wait
 * sums into one all-pairs table (built by extending each walk one
 * link at a time, so every entry performs the exact addition sequence
 * of the route walk — bit-identical by construction). A memory leg is
 * its mesh route plus one attach link, so its wait is one table read
 * plus one link wait. The injection scale multiplies measured
 * utilizations, letting studies sweep load without changing the
 * workload (noc_sensitivity).
 */

#ifndef CDCS_NET_NOC_MODEL_HH
#define CDCS_NET_NOC_MODEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mesh/mesh.hh"

namespace cdcs
{

/** Accumulated load of one NoC link (post-warmup snapshot). */
struct NocLinkStat
{
    /** Upstream tile of the link. */
    TileId src = invalidTile;
    /** Downstream tile; invalidTile for a memory-attach link. */
    TileId dst = invalidTile;
    /** Controller index for attach links, -1 for mesh links. */
    int memCtrl = -1;
    /** Flits that traversed the link since the warmup boundary. */
    std::uint64_t flits = 0;
    /** Utilization at the last epoch update (after injection scaling). */
    double util = 0.0;
    /** Queueing wait (cycles) currently charged per traversal. */
    double waitCycles = 0.0;
    /** True for a far-tier attach link (memCtrl is the controller). */
    bool far = false;

    bool operator==(const NocLinkStat &) const = default;
};

/**
 * Latency queries + traffic accounting + epoch-boundary contention
 * refresh + stats snapshots of the on-chip network.
 */
class NocModel
{
  public:
    /** The zero-load mesh (`noc=zero-load`): no link state. */
    explicit NocModel(const Mesh &mesh) : topo(mesh) {}

    /**
     * The contention mesh (`noc=contention`).
     *
     * @param inj_scale Multiplier on measured link utilization
     *        (injection-rate scaling; 1.0 models the workload as-is).
     * @param max_util Utilization clamp of the M/D/1 waiting time
     *        (keeps the wait finite as links saturate).
     * @param far_links Give each controller a second, far-tier attach
     *        link (capacity disaggregation). Off by default so the
     *        link population — and therefore every epoch update and
     *        stat — is untouched when no far tier is configured.
     */
    NocModel(const Mesh &mesh, double inj_scale, double max_util,
             bool far_links = false);

    NocModel(const NocModel &) = delete;
    NocModel &operator=(const NocModel &) = delete;

    /** The `noc=` value that selects the model. */
    const char *
    name() const
    {
        return contention ? "contention" : "zero-load";
    }

    /** Latency of one message routed X-Y from src to dst. */
    double
    latency(TileId src, TileId dst, std::uint32_t payload_flits) const
    {
        return static_cast<double>(
                   topo.latency(topo.hops(src, dst), payload_flits)) +
            pathWait(src, dst);
    }

    /**
     * Latency of one request from a tile to memory controller `ctrl`,
     * including the controller's attach link (the +1 hop of
     * Mesh::hopsToCtrl).
     */
    double
    memLatency(TileId tile, int ctrl, std::uint32_t payload_flits) const
    {
        return memZeroLoad(tile, ctrl, payload_flits) +
            requestWait(tile, ctrl, false);
    }

    /** Latency of one response from controller `ctrl` to a tile. */
    double
    memResponseLatency(int ctrl, TileId tile,
                       std::uint32_t payload_flits) const
    {
        return memZeroLoad(tile, ctrl, payload_flits) +
            responseWait(ctrl, tile, false);
    }

    /**
     * Latency of one request to controller `ctrl`'s far tier. The far
     * pool hangs off the same controller tile as near DRAM, so only
     * the attach link can differ (and does only with far links).
     */
    double
    farMemLatency(TileId tile, int ctrl,
                  std::uint32_t payload_flits) const
    {
        return memZeroLoad(tile, ctrl, payload_flits) +
            requestWait(tile, ctrl, true);
    }

    /** Far-tier counterpart of memResponseLatency. */
    double
    farMemResponseLatency(int ctrl, TileId tile,
                          std::uint32_t payload_flits) const
    {
        return memZeroLoad(tile, ctrl, payload_flits) +
            responseWait(ctrl, tile, true);
    }

    /**
     * Queueing wait (cycles) charged on top of the zero-load latency
     * along the X-Y route src -> dst (one table read). This is the
     * query the reconfiguration runtime's PlacementCostModel snapshots
     * each epoch, so placement sees the same contention the access
     * path pays.
     */
    double
    pathWait(TileId src, TileId dst) const
    {
        if (!contention)
            return 0.0;
        return waitTbl[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(topo.numTiles()) +
                       dst];
    }

    /** Wait of a request route to controller `ctrl`, incl. attach. */
    double
    memPathWait(TileId tile, int ctrl) const
    {
        return requestWait(tile, ctrl, false);
    }

    /** Wait of a response route from controller `ctrl` (attach first). */
    double
    memResponsePathWait(int ctrl, TileId tile) const
    {
        return responseWait(ctrl, tile, false);
    }

    /**
     * Reference implementation of pathWait: the literal link-by-link
     * route walk the flattened table must reproduce bit for bit.
     * Kept for tests and for auditing the flattening.
     */
    double walkPathWait(TileId src, TileId dst) const;

    /** Account one tile-to-tile message of a given class. */
    void
    addTraffic(TrafficClass cls, TileId src, TileId dst,
               std::uint32_t flits)
    {
        countHops(cls, topo.hops(src, dst), flits);
        if (contention)
            routeMsg(src, dst, flits);
    }

    /** Account one request to controller `ctrl` (route + attach). */
    void
    addMemTraffic(TrafficClass cls, TileId tile, int ctrl,
                  std::uint32_t flits)
    {
        accountRequest(cls, tile, ctrl, false, flits);
    }

    /**
     * Account one response from controller `ctrl` (attach + route).
     * X-Y routes are symmetric in hop count, so the per-class
     * flit-hops match addMemTraffic; the per-link accounting charges
     * the reverse-direction mesh links.
     */
    void
    addMemResponse(TrafficClass cls, int ctrl, TileId tile,
                   std::uint32_t flits)
    {
        accountResponse(cls, ctrl, tile, false, flits);
    }

    /** Account one request entering controller `ctrl`'s far tier. */
    void
    addFarMemTraffic(TrafficClass cls, TileId tile, int ctrl,
                     std::uint32_t flits)
    {
        accountRequest(cls, tile, ctrl, true, flits);
    }

    /** Far-tier counterpart of addMemResponse. */
    void
    addFarMemResponse(TrafficClass cls, int ctrl, TileId tile,
                      std::uint32_t flits)
    {
        accountResponse(cls, ctrl, tile, true, flits);
    }

    /**
     * Epoch boundary: reprice every link from the loads measured over
     * the last `elapsed_cycles` mean active cycles.
     */
    void
    epochUpdate(double elapsed_cycles)
    {
        closeEpoch(elapsed_cycles, true);
    }

    /**
     * End of the run's last epoch, which gets no epochUpdate: count
     * its loads into the per-epoch stats as epochUpdate would, but
     * leave the waits and utilizations untouched.
     */
    void
    finalEpoch(double elapsed_cycles)
    {
        closeEpoch(elapsed_cycles, false);
    }

    /**
     * Reset the traffic counters (warmup boundary). The waits stay:
     * the last warmup epoch's estimate is the best predictor for the
     * first measured epoch.
     */
    void clearTraffic();

    /** Accumulated flit-hops for a class. */
    std::uint64_t
    trafficFlitHops(TrafficClass cls) const
    {
        return flitHops[static_cast<std::size_t>(cls)];
    }

    /** Total accumulated flit-hops. */
    std::uint64_t
    totalFlitHops() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t f : flitHops)
            sum += f;
        return sum;
    }

    /** Per-link loads; empty under the zero-load model. */
    std::vector<NocLinkStat> linkStats() const;

    const Mesh &mesh() const { return topo; }

  private:
    /** Zero-load latency between a tile and controller `ctrl`. */
    double
    memZeroLoad(TileId tile, int ctrl, std::uint32_t payload_flits) const
    {
        return static_cast<double>(
            topo.latency(topo.hopsToCtrl(tile, ctrl), payload_flits));
    }

    /**
     * Link index of the attach link a memory leg through controller
     * `ctrl` uses: the far block for a far leg when far links exist,
     * else the near one.
     */
    std::size_t
    attachLink(int ctrl, bool far) const
    {
        const auto ctrls = static_cast<std::size_t>(topo.numMemCtrls());
        return attachBase + static_cast<std::size_t>(ctrl) +
            (far && farLinks ? ctrls : 0);
    }

    /** Request-leg wait: the route to the controller's tile, then attach. */
    double
    requestWait(TileId tile, int ctrl, bool far) const
    {
        if (!contention)
            return 0.0;
        return pathWait(tile, topo.memCtrlTile(ctrl)) +
            linkWait[attachLink(ctrl, far)];
    }

    /** Response-leg wait: attach, then the route from the controller. */
    double
    responseWait(int ctrl, TileId tile, bool far) const
    {
        if (!contention)
            return 0.0;
        return linkWait[attachLink(ctrl, far)] +
            pathWait(topo.memCtrlTile(ctrl), tile);
    }

    void
    countHops(TrafficClass cls, int hops, std::uint32_t flits)
    {
        flitHops[static_cast<std::size_t>(cls)] +=
            static_cast<std::uint64_t>(hops) * flits;
    }

    /** Queue a mesh leg's flits for the epoch-close fold. */
    void
    routeMsg(TileId src, TileId dst, std::uint32_t flits)
    {
        pairFlits[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(topo.numTiles()) +
                  dst] += flits;
    }

    void
    accountRequest(TrafficClass cls, TileId tile, int ctrl, bool far,
                   std::uint32_t flits)
    {
        countHops(cls, topo.hopsToCtrl(tile, ctrl), flits);
        if (contention) {
            routeMsg(tile, topo.memCtrlTile(ctrl), flits);
            linkFlits[attachLink(ctrl, far)] += flits;
        }
    }

    /**
     * The attach link models the controller port and carries both
     * directions; a response's mesh legs use the reverse-direction
     * links of the request route.
     */
    void
    accountResponse(TrafficClass cls, int ctrl, TileId tile, bool far,
                    std::uint32_t flits)
    {
        countHops(cls, topo.hopsToCtrl(tile, ctrl), flits);
        if (contention) {
            linkFlits[attachLink(ctrl, far)] += flits;
            routeMsg(topo.memCtrlTile(ctrl), tile, flits);
        }
    }

    /**
     * Close an epoch (contention only): fold the pending pairs into
     * linkFlits, count each link's flits since the last close into
     * the `noc.*` stats and, when `refresh`, reprice the links from
     * them (M/D/1 wait, utilization) and rebuild waitTbl.
     */
    void closeEpoch(double elapsed_cycles, bool refresh);

    /** Add every pending pair's flits along its X-Y route. */
    void foldPairs(std::vector<std::uint64_t> &flits) const;

    /**
     * Rebuild waitTbl from linkWait (construction, epochUpdate).
     * O(tiles^2) — off the access path.
     */
    void rebuildWaitTable();

    const Mesh &topo;

    std::array<std::uint64_t,
               static_cast<std::size_t>(TrafficClass::NumClasses)>
        flitHops{};

    // Contention state, unused (vectors empty) under zero load.
    bool contention = false; ///< Links counted and priced.
    double injScale = 1.0;
    double maxUtil = 0.0;
    bool farLinks = false;      ///< Far attach links materialized.
    std::size_t attachBase = 0; ///< First attach-link index.

    /** Mesh-leg flits not yet folded, [src * tiles + dst]. */
    std::vector<std::uint64_t> pairFlits;

    // Per-link state, indexed by link id.
    std::vector<std::uint64_t> linkFlits; ///< Folded, since clearTraffic.
    std::vector<std::uint64_t> prevFlits; ///< At last epoch close.
    std::vector<double> linkWait;         ///< Cycles per traversal.
    std::vector<double> linkUtil;         ///< Last measured (scaled).

    /** Route waits, [src * tiles + dst] (rebuildWaitTable). */
    std::vector<double> waitTbl;
};

} // namespace cdcs

#endif // CDCS_NET_NOC_MODEL_HH
