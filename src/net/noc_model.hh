/**
 * @file
 * Pluggable network-on-chip model interface. The simulation layers
 * (AccessPath, EpochController) talk to a NocModel instead of doing
 * Mesh latency arithmetic directly, so the network model can range
 * from the paper's zero-load analytic mesh (Table 2) to a
 * contention-aware queueing model without touching the access flow.
 *
 * A NocModel answers two hot-path queries — message latency between
 * tiles and to a memory controller — and accounts each message's
 * traffic (per-class flit-hops, and per-link flits for models that
 * track links). Contention state is refreshed only at epoch
 * boundaries (epochUpdate), never on the access path, so latency
 * queries stay table lookups along the route.
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
 * Interface of a network model: latency queries + traffic accounting
 * + epoch-boundary contention refresh + stats snapshots.
 *
 * The base class owns the per-class flit-hop counters every model
 * reports (the Fig. 11d / 14 / 15b breakdowns); per-link accounting
 * is delegated to the routeMsg/routeMemMsg hooks so zero-load models
 * pay nothing for it.
 */
class NocModel
{
  public:
    explicit NocModel(const Mesh &mesh) : topo(mesh) { flitHops.fill(0); }
    virtual ~NocModel() = default;

    NocModel(const NocModel &) = delete;
    NocModel &operator=(const NocModel &) = delete;

    /** The `noc=` value that selects the model ("zero-load", ...). */
    virtual const char *name() const = 0;

    /** Latency of one message routed X-Y from src to dst. */
    virtual double latency(TileId src, TileId dst,
                           std::uint32_t payload_flits) const = 0;

    /**
     * Latency of one message between a tile and memory controller
     * `ctrl`, including the controller's attach link (the +1 hop of
     * Mesh::hopsToCtrl).
     */
    virtual double memLatency(TileId tile, int ctrl,
                              std::uint32_t payload_flits) const = 0;

    /**
     * Latency of one response from memory controller `ctrl` to a
     * tile (incl. attach). Zero-load latency is direction-symmetric,
     * so the default forwards to memLatency; contention models charge
     * the response-direction link waits instead.
     */
    virtual double
    memResponseLatency(int ctrl, TileId tile,
                       std::uint32_t payload_flits) const
    {
        return memLatency(tile, ctrl, payload_flits);
    }

    /**
     * Latency of one message between a tile and controller `ctrl`'s
     * FAR attach link. The far pool hangs off the same controller
     * tile as near DRAM, so the mesh legs are identical and only the
     * attach link differs; models without dedicated far links (and
     * zero-load models, where an uncontended attach link prices the
     * same) answer the near-tier latency.
     */
    virtual double
    farMemLatency(TileId tile, int ctrl,
                  std::uint32_t payload_flits) const
    {
        return memLatency(tile, ctrl, payload_flits);
    }

    /** Far-tier counterpart of memResponseLatency. */
    virtual double
    farMemResponseLatency(int ctrl, TileId tile,
                          std::uint32_t payload_flits) const
    {
        return memResponseLatency(ctrl, tile, payload_flits);
    }

    /** Account one tile-to-tile message of a given class. */
    void
    addTraffic(TrafficClass cls, TileId src, TileId dst,
               std::uint32_t flits)
    {
        flitHops[static_cast<std::size_t>(cls)] +=
            static_cast<std::uint64_t>(topo.hops(src, dst)) * flits;
        routeMsg(src, dst, flits);
    }

    /** Account one tile-to-memory-controller message (incl. attach). */
    void
    addMemTraffic(TrafficClass cls, TileId tile, int ctrl,
                  std::uint32_t flits)
    {
        flitHops[static_cast<std::size_t>(cls)] +=
            static_cast<std::uint64_t>(topo.hopsToCtrl(tile, ctrl)) *
            flits;
        routeMemMsg(tile, ctrl, flits);
    }

    /**
     * Account one controller-to-tile response (incl. attach). Routes
     * are X-Y symmetric in hop count, so the per-class flit-hop
     * totals match addMemTraffic; models with directed per-link
     * accounting charge the reverse-direction links instead.
     */
    void
    addMemResponse(TrafficClass cls, int ctrl, TileId tile,
                   std::uint32_t flits)
    {
        flitHops[static_cast<std::size_t>(cls)] +=
            static_cast<std::uint64_t>(topo.hopsToCtrl(tile, ctrl)) *
            flits;
        routeMemResponse(ctrl, tile, flits);
    }

    /**
     * Account one tile-to-controller message entering the FAR attach
     * link. The hop count matches the near tier (same controller
     * tile, one attach hop); only the per-link routing differs.
     */
    void
    addFarMemTraffic(TrafficClass cls, TileId tile, int ctrl,
                     std::uint32_t flits)
    {
        flitHops[static_cast<std::size_t>(cls)] +=
            static_cast<std::uint64_t>(topo.hopsToCtrl(tile, ctrl)) *
            flits;
        routeFarMemMsg(tile, ctrl, flits);
    }

    /** Far-tier counterpart of addMemResponse. */
    void
    addFarMemResponse(TrafficClass cls, int ctrl, TileId tile,
                      std::uint32_t flits)
    {
        flitHops[static_cast<std::size_t>(cls)] +=
            static_cast<std::uint64_t>(topo.hopsToCtrl(tile, ctrl)) *
            flits;
        routeFarMemResponse(ctrl, tile, flits);
    }

    /**
     * Queueing wait (cycles) currently charged on top of the
     * zero-load latency along the X-Y route src -> dst. This is the
     * query the reconfiguration runtime's PlacementCostModel snapshots
     * each epoch, so placement sees the same contention the access
     * path pays. Zero-load models answer 0.
     */
    virtual double
    pathWait(TileId src, TileId dst) const
    {
        (void)src;
        (void)dst;
        return 0.0;
    }

    /**
     * Queueing wait (cycles) on the route from a tile to memory
     * controller `ctrl`, including the attach link. Zero-load models
     * answer 0.
     */
    virtual double
    memPathWait(TileId tile, int ctrl) const
    {
        (void)tile;
        (void)ctrl;
        return 0.0;
    }

    /**
     * Queueing wait (cycles) on the response route from memory
     * controller `ctrl` back to a tile (attach link + the
     * reverse-direction mesh links). Zero-load models answer 0.
     */
    virtual double
    memResponsePathWait(int ctrl, TileId tile) const
    {
        (void)ctrl;
        (void)tile;
        return 0.0;
    }

    /**
     * Route wait to controller `ctrl`'s far attach link. Models
     * without dedicated far links answer the near-tier wait.
     */
    virtual double
    farMemPathWait(TileId tile, int ctrl) const
    {
        return memPathWait(tile, ctrl);
    }

    /** Far-tier counterpart of memResponsePathWait. */
    virtual double
    farMemResponsePathWait(int ctrl, TileId tile) const
    {
        return memResponsePathWait(ctrl, tile);
    }

    /**
     * Epoch boundary: refresh contention state from the loads
     * measured over the last `elapsed_cycles` mean active cycles.
     * Zero-load models ignore it.
     */
    virtual void epochUpdate(double elapsed_cycles)
    {
        (void)elapsed_cycles;
    }

    /**
     * End of the run's last epoch, which gets no epochUpdate: count
     * its loads into the per-epoch stats as epochUpdate would, but
     * leave the contention state (waits, utilizations) untouched.
     */
    virtual void finalEpoch(double elapsed_cycles)
    {
        (void)elapsed_cycles;
    }

    /** Reset traffic counters (warmup boundary). */
    virtual void clearTraffic() { flitHops.fill(0); }

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

    /** Per-link loads; empty for models that don't track links. */
    virtual std::vector<NocLinkStat> linkStats() const { return {}; }

    const Mesh &mesh() const { return topo; }

  protected:
    /** Per-link accounting hook for one X-Y routed message. */
    virtual void
    routeMsg(TileId src, TileId dst, std::uint32_t flits)
    {
        (void)src;
        (void)dst;
        (void)flits;
    }

    /** Per-link accounting hook for one memory leg (+ attach link). */
    virtual void
    routeMemMsg(TileId tile, int ctrl, std::uint32_t flits)
    {
        (void)tile;
        (void)ctrl;
        (void)flits;
    }

    /** Per-link hook for one memory response (attach link + route). */
    virtual void
    routeMemResponse(int ctrl, TileId tile, std::uint32_t flits)
    {
        (void)ctrl;
        (void)tile;
        (void)flits;
    }

    /**
     * Per-link hook for one far-tier memory leg. Models without
     * dedicated far links fold the traffic into the near accounting.
     */
    virtual void
    routeFarMemMsg(TileId tile, int ctrl, std::uint32_t flits)
    {
        routeMemMsg(tile, ctrl, flits);
    }

    /** Per-link hook for one far-tier memory response. */
    virtual void
    routeFarMemResponse(int ctrl, TileId tile, std::uint32_t flits)
    {
        routeMemResponse(ctrl, tile, flits);
    }

    const Mesh &topo;

  private:
    std::array<std::uint64_t,
               static_cast<std::size_t>(TrafficClass::NumClasses)>
        flitHops;
};

} // namespace cdcs

#endif // CDCS_NET_NOC_MODEL_HH
