/**
 * @file
 * Contention-aware mesh network model. Every message is routed X-Y
 * over explicit directed links (four per tile, plus one attach link
 * per memory controller) with per-link flit counters; queueing delay
 * is charged per link from an M/D/1-style waiting time computed at
 * each epoch boundary from the previous epoch's measured link loads.
 *
 * The access path never simulates events: a latency query is the
 * zero-load latency plus a route-wait lookup. Since link waits only
 * change at epochUpdate, the per-route wait sums are flattened there
 * into all-pairs tables (built by extending each walk one link at a
 * time, so every entry performs the exact addition sequence of the
 * route walk — bit-identical by construction), and each hot-path
 * query is a single O(1) table read instead of an O(hops) walk. The
 * injection scale knob multiplies measured utilizations, letting
 * studies sweep load without changing the workload
 * (noc_sensitivity).
 */

#ifndef CDCS_NET_CONTENTION_NOC_HH
#define CDCS_NET_CONTENTION_NOC_HH

#include "net/noc_model.hh"

namespace cdcs
{

/** Queueing/contention mesh model with per-link accounting. */
class ContentionNoc final : public NocModel
{
  public:
    /**
     * @param inj_scale Multiplier on measured link utilization
     *        (injection-rate scaling; 1.0 models the workload as-is).
     * @param max_util Utilization clamp of the M/D/1 waiting time
     *        (keeps the wait finite as links saturate).
     * @param far_links Give each controller a second, far-tier attach
     *        link (capacity disaggregation). Off by default so the
     *        link population — and therefore every epoch update and
     *        stat — is untouched when no far tier is configured.
     */
    ContentionNoc(const Mesh &mesh, double inj_scale,
                  double max_util, bool far_links = false);

    const char *name() const override { return "contention"; }

    double latency(TileId src, TileId dst,
                   std::uint32_t payload_flits) const override;
    double memLatency(TileId tile, int ctrl,
                      std::uint32_t payload_flits) const override;
    double memResponseLatency(int ctrl, TileId tile,
                              std::uint32_t payload_flits)
        const override;
    double farMemLatency(TileId tile, int ctrl,
                         std::uint32_t payload_flits) const override;
    double farMemResponseLatency(int ctrl, TileId tile,
                                 std::uint32_t payload_flits)
        const override;

    /** Sum of link waits along the X-Y route (flattened, O(1)). */
    double pathWait(TileId src, TileId dst) const override;
    /** Route wait to a controller, including its attach link. */
    double memPathWait(TileId tile, int ctrl) const override;
    /** Response-route wait from a controller (attach + mesh legs). */
    double memResponsePathWait(int ctrl, TileId tile) const override;
    /** Route wait to a controller's far attach link (near when off). */
    double farMemPathWait(TileId tile, int ctrl) const override;
    /** Far response-route wait (near when far links are off). */
    double farMemResponsePathWait(int ctrl, TileId tile) const override;

    /**
     * Reference implementation of pathWait: the literal link-by-link
     * route walk the flattened tables must reproduce bit-for-bit.
     * Kept for tests and for auditing the flattening.
     */
    double walkPathWait(TileId src, TileId dst) const;

    void epochUpdate(double elapsed_cycles) override;
    void finalEpoch(double elapsed_cycles) override;
    void clearTraffic() override;

    std::vector<NocLinkStat> linkStats() const override;

    /** Number of tracked links (mesh links + mem attach links). */
    std::size_t numLinks() const { return linkFlits.size(); }

  protected:
    void routeMsg(TileId src, TileId dst,
                  std::uint32_t flits) override;
    void routeMemMsg(TileId tile, int ctrl,
                     std::uint32_t flits) override;
    void routeMemResponse(int ctrl, TileId tile,
                          std::uint32_t flits) override;
    void routeFarMemMsg(TileId tile, int ctrl,
                        std::uint32_t flits) override;
    void routeFarMemResponse(int ctrl, TileId tile,
                             std::uint32_t flits) override;

  private:
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
    meshLink(TileId tile, int dir) const
    {
        return static_cast<std::size_t>(tile) * 4 +
            static_cast<std::size_t>(dir);
    }

    /** Link index of controller `ctrl`'s attach link. */
    std::size_t
    attachLink(int ctrl) const
    {
        return attachBase + static_cast<std::size_t>(ctrl);
    }

    /**
     * Link index of controller `ctrl`'s far-tier attach link. Only
     * valid when far links are on (the far block sits after the near
     * attach block).
     */
    std::size_t
    farAttachLink(int ctrl) const
    {
        return attachBase +
            static_cast<std::size_t>(topo.numMemCtrls()) +
            static_cast<std::size_t>(ctrl);
    }

    /**
     * Walk the X-Y route src -> dst, applying `fn(link)` per link.
     * The route is X-first (dimension-ordered), matching the hop
     * count Mesh::hops reports.
     */
    template <typename Fn>
    void
    walkRoute(TileId src, TileId dst, Fn &&fn) const
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

    /**
     * Rebuild the flattened per-epoch wait tables from linkWait.
     * Called whenever linkWait changes (construction, epochUpdate).
     * O(tiles^2 + tiles * ctrls) — off the access path.
     */
    void rebuildWaitTables();

    /**
     * Close an epoch: count each link's flits since the last close
     * into the `noc.*` stats and, when `refresh`, reprice the link
     * from them (M/D/1 wait, utilization).
     */
    void closeEpoch(double elapsed_cycles, bool refresh);

    double injScale;
    double maxUtil;
    bool farLinks;           ///< Far attach links materialized.
    std::size_t attachBase;  ///< First attach-link index.

    // Per-link state, indexed by link id.
    std::vector<std::uint64_t> linkFlits;  ///< Since clearTraffic.
    std::vector<std::uint64_t> prevFlits;  ///< At last epochUpdate.
    std::vector<double> linkWait;          ///< Cycles per traversal.
    std::vector<double> linkUtil;          ///< Last measured (scaled).

    // Flattened per-epoch route-wait tables (rebuildWaitTables).
    std::vector<double> waitTbl;     ///< [src * tiles + dst].
    std::vector<double> memReqTbl;   ///< [tile * ctrls + ctrl].
    std::vector<double> memRespTbl;  ///< [ctrl * tiles + tile].
    std::vector<double> farReqTbl;   ///< Far legs; empty when off.
    std::vector<double> farRespTbl;  ///< Far legs; empty when off.
};

} // namespace cdcs

#endif // CDCS_NET_CONTENTION_NOC_HH
