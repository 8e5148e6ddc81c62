/**
 * @file
 * The placement cost oracle: a per-epoch snapshot of the NoC's
 * *effective* distances consumed by the reconfiguration runtime
 * (Sec. IV). The paper prices every hop at a flat hopCycles, which is
 * exact under the zero-load mesh but blind to congestion; with a
 * contention-aware network model the runtime should steer VCs and
 * threads away from saturated links, the extension Jigsaw/CDCS argue
 * for and the ROADMAP tracked as open.
 *
 * The oracle answers the same four distance queries the CDCS steps
 * used to compute from raw Mesh arithmetic — tile-pair distance,
 * distance to a fractional point, mean memory-network distance, and
 * the optimistic compact-placement distance — in *hop-equivalent*
 * units: zero-load hops plus the NoC's measured per-route queueing
 * wait divided by hopCycles. Under a model that reports no waits
 * (`noc=zero-load`, or `noc=contention` before the first epoch
 * update) every query falls through to the exact legacy Mesh
 * expression, so the default configuration stays byte-identical to
 * the pre-oracle simulator.
 */

#ifndef CDCS_RUNTIME_PLACEMENT_COST_HH
#define CDCS_RUNTIME_PLACEMENT_COST_HH

#include <vector>

#include "common/types.hh"
#include "mesh/mesh.hh"

namespace cdcs
{

class NocModel;

/** Effective-distance snapshot for one reconfiguration. */
class PlacementCostModel
{
  public:
    /** Invalid (unqueried) model; assign before use. */
    PlacementCostModel() = default;

    /** Zero-wait oracle: every query is the plain Mesh arithmetic. */
    PlacementCostModel(const Mesh &mesh, double hop_cycles)
        : topo(&mesh), hopCycles(hop_cycles)
    {
    }

    /**
     * Snapshot the NoC's current per-route waits (NocModel::pathWait
     * / memPathWait, as refreshed by the last epochUpdate). If every
     * wait is zero the snapshot degenerates to the zero-wait oracle.
     *
     * `prev`/`alpha` EWMA-blend the raw waits with the previous
     * epoch's snapshot (alpha = weight of the new measurement, like
     * SystemConfig::monitorSmoothing): placement feeds back into the
     * waits it is priced on, and the loop only converges if the
     * signal is damped the same way the monitor inputs are. The
     * blended waits are then quantized to quarter-hops, so noise
     * defers to the placement pipeline's deterministic tie-breaks.
     */
    static PlacementCostModel fromNoc(const NocModel &noc,
                                      double hop_cycles,
                                      const PlacementCostModel *prev =
                                          nullptr,
                                      double alpha = 1.0);

    bool valid() const { return topo != nullptr; }

    /** True when any route carries a nonzero queueing wait. */
    bool contended() const { return contendedWaits; }

    /** Per-hop cycles the wait terms are normalized by. */
    double hopCost() const { return hopCycles; }

    /** Effective tile-pair distance (hops + wait/hopCycles). */
    double
    tileDist(TileId a, TileId b) const
    {
        const double d = topo->hops(a, b);
        if (!contendedWaits)
            return d;
        return d + pairWaitHops[static_cast<std::size_t>(a) *
                                    static_cast<std::size_t>(
                                        topo->numTiles()) +
                                static_cast<std::size_t>(b)];
    }

    /**
     * Effective distance from a tile to a fractional (x, y) point:
     * the geometric distance plus the wait on the route to the tile
     * nearest the point (centers of mass / anchors are tile-scale
     * aggregates, so the nearest tile's route is the representative
     * congestion sample).
     */
    double
    distanceToPoint(TileId tile, double x, double y) const
    {
        const double d = topo->distanceToPoint(tile, x, y);
        if (!contendedWaits)
            return d;
        return d + pairWaitHops[static_cast<std::size_t>(tile) *
                                    static_cast<std::size_t>(
                                        topo->numTiles()) +
                                static_cast<std::size_t>(
                                    nearestTile(x, y))];
    }

    /**
     * Mean effective memory-network distance from a tile (over the
     * page-interleaved controllers, attach links included).
     */
    double
    avgMemDist(TileId tile) const
    {
        const double d = topo->avgHopsToMemCtrl(tile);
        if (!contendedWaits)
            return d;
        return d + memWaitHops[static_cast<std::size_t>(tile)];
    }

    /**
     * Optimistic compact-placement distance (Fig. 6), inflated by the
     * chip's flit-weighted mean per-hop wait: the optimistic placement
     * has no location yet, so the chip-wide average congestion is the
     * only consistent estimate.
     */
    double
    optimisticDistance(double banks) const
    {
        const double d = topo->optimisticDistance(banks);
        if (!contendedWaits)
            return d;
        return d * (1.0 + meanWaitPerHop);
    }

    const Mesh &mesh() const { return *topo; }

  private:
    /** Tile nearest a fractional point (round + clamp). */
    TileId nearestTile(double x, double y) const;

    const Mesh *topo = nullptr;
    double hopCycles = 1.0;
    bool contendedWaits = false;
    /** Quantized pathWait(a, b) / hopCycles, indexed
     *  a * numTiles + b; what the distance queries consume. */
    std::vector<double> pairWaitHops;
    /** Quantized mean over controllers of memPathWait / hopCycles,
     *  per tile. */
    std::vector<double> memWaitHops;
    /** Quantized flit-weighted mean link wait / hopCycles. */
    double meanWaitPerHop = 0.0;

    // Unquantized (EWMA-blended) waits, kept only so the next
    // epoch's snapshot can blend against them.
    std::vector<double> rawPairWaitHops;
    std::vector<double> rawMemWaitHops;
    double rawMeanWaitPerHop = 0.0;
};

} // namespace cdcs

#endif // CDCS_RUNTIME_PLACEMENT_COST_HH
