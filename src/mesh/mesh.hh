/**
 * @file
 * Mesh network-on-chip model: topology, X-Y routing distances, memory
 * controller attachment, message latency and flit-level traffic
 * accounting.
 *
 * The model is analytic rather than flit-accurate: latency is
 * hops * (router + link) plus payload serialization, which matches the
 * zero-load latency of the 3-cycle-router / 1-cycle-link mesh in the
 * paper (Table 2). The Mesh is pure topology + latency math; traffic
 * accounting (per-class flit-hops, per-link loads) lives in the
 * network model, src/net/noc_model.hh.
 */

#ifndef CDCS_MESH_MESH_HH
#define CDCS_MESH_MESH_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace cdcs
{

/** Traffic classes reported by the paper's breakdowns. */
enum class TrafficClass : std::uint8_t
{
    L2ToLLC,    ///< Core/L2 to LLC-bank requests and responses.
    LLCToMem,   ///< LLC-bank to memory-controller traffic.
    Other,      ///< Moves, invalidations, monitoring.
    NumClasses
};

/** Tile coordinate on the mesh. */
struct MeshCoord
{
    int x;
    int y;
};

/** Static NoC latency/width parameters. */
struct NocConfig
{
    Cycles routerCycles = 3;    ///< Pipelined router traversal.
    Cycles linkCycles = 1;      ///< Link traversal.
    std::uint32_t flitBits = 128;
    std::uint32_t headerBits = 64;

    /** Flits of a control (address-only) message. */
    std::uint32_t ctrlFlits() const { return 1; }

    /** Flits of a data message carrying one cache line. */
    std::uint32_t
    dataFlits() const
    {
        const std::uint32_t bits = headerBits + lineBytes * 8;
        return (bits + flitBits - 1) / flitBits;
    }
};

/**
 * A width x height mesh of tiles with memory controllers attached to
 * edge tiles (two per side, like the target CMP in Fig. 3).
 *
 * All queries are const and cheap: hop counts to tiles and to
 * controllers are tables built by the constructor.
 */
class Mesh
{
  public:
    /**
     * @param width Tiles per row.
     * @param height Tiles per column.
     * @param cfg Latency and width parameters.
     * @param num_mem_ctrls Number of edge memory controllers
     *        (rounded down to a multiple of 4; 0 lets the model place
     *        8 controllers, or 4 on meshes narrower than 4 tiles).
     */
    Mesh(int width, int height, NocConfig cfg = NocConfig{},
         int num_mem_ctrls = 0);

    int width() const { return meshWidth; }
    int height() const { return meshHeight; }
    int numTiles() const { return meshWidth * meshHeight; }
    int numMemCtrls() const { return static_cast<int>(memCtrlTiles.size()); }
    const NocConfig &config() const { return nocConfig; }

    /** Coordinate of a tile id. */
    MeshCoord
    coordOf(TileId tile) const
    {
        return {tile % meshWidth, tile / meshWidth};
    }

    /** Tile id of a coordinate. @pre coordinate on the mesh. */
    TileId
    tileAt(int x, int y) const
    {
        return static_cast<TileId>(y * meshWidth + x);
    }

    /** X-Y routing hop count between two tiles (table read). */
    int
    hops(TileId a, TileId b) const
    {
        return hopTbl[static_cast<std::size_t>(a) *
                          static_cast<std::size_t>(numTiles()) +
                      b];
    }

    /** Fractional distance between a tile and an (x, y) point. */
    double distanceToPoint(TileId tile, double x, double y) const;

    /**
     * Hop count from a tile to the memory controller owning an
     * address (addresses are page-interleaved across controllers).
     * Includes the one hop from the edge tile onto the controller.
     */
    int hopsToMemCtrl(TileId tile, LineAddr line) const;

    /**
     * Controller index owning an address under the page-interleaved
     * mapping (the interleaving behind hopsToMemCtrl).
     */
    int memCtrlOf(LineAddr line) const;

    /** Mean over controllers of hopsToMemCtrl from this tile. */
    double avgHopsToMemCtrl(TileId tile) const;

    /** Edge tile the i-th memory controller is attached to. */
    TileId
    memCtrlTile(int i) const
    {
        return memCtrlTiles[static_cast<std::size_t>(i)];
    }

    /**
     * Controller index nearest to a tile (NUMA-aware page placement,
     * the extension Sec. III defers to future work).
     */
    int nearestMemCtrl(TileId tile) const;

    /** Hops from a tile to a specific controller (incl. attach). */
    int
    hopsToCtrl(TileId tile, int ctrl) const
    {
        return ctrlHopTbl[static_cast<std::size_t>(tile) *
                              memCtrlTiles.size() +
                          static_cast<std::size_t>(ctrl)];
    }

    /** Zero-load latency of a message traversing h hops. */
    Cycles
    latency(int h, std::uint32_t payload_flits) const
    {
        // A message always carries at least one (header) flit; a
        // zero-flit payload would wrap `payload_flits - 1` to a huge
        // Cycles value, so clamp the serialization term defensively.
        cdcs_assert(payload_flits > 0,
                    "message must carry at least one flit");
        const Cycles serialization =
            payload_flits > 0 ? payload_flits - 1 : 0;
        if (h == 0)
            return serialization;
        const Cycles per_hop = nocConfig.routerCycles + nocConfig.linkCycles;
        return static_cast<Cycles>(h) * per_hop + serialization;
    }

    /**
     * Tiles sorted by distance from a given tile; used for compact
     * footprint construction by the placement algorithms.
     */
    const std::vector<TileId> &tilesByDistance(TileId from) const;

    /**
     * Average hop distance from the chip's center point to the
     * nearest `banks` tiles (fractional): the optimistic compact
     * placement distance of Fig. 6, used by latency-aware allocation.
     */
    double optimisticDistance(double banks) const;

  private:
    int meshWidth;
    int meshHeight;
    NocConfig nocConfig;
    std::vector<TileId> memCtrlTiles;
    /// Hop counts, [a * tiles + b]: the per-message queries never
    /// divide by the mesh width.
    std::vector<std::uint16_t> hopTbl;
    /// hopsToCtrl, [tile * ctrls + ctrl] (attach hop included).
    std::vector<std::uint16_t> ctrlHopTbl;
    /// tilesByDistance cache, indexed by origin tile.
    std::vector<std::vector<TileId>> sortedTiles;
    /// Prefix-averaged distances from chip center (index = #banks).
    std::vector<double> centerDistPrefix;
};

} // namespace cdcs

#endif // CDCS_MESH_MESH_HH
