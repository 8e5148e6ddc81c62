#include "mesh/mesh.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/log.hh"

namespace cdcs
{

Mesh::Mesh(int width, int height, NocConfig cfg, int num_mem_ctrls)
    : meshWidth(width), meshHeight(height), nocConfig(cfg)
{
    cdcs_assert(width > 0 && height > 0, "mesh dimensions must be positive");

    // Attach memory controllers to edge tiles, spread over the four
    // sides like the target CMP (Fig. 3): positions at roughly 1/3 and
    // 2/3 along each edge.
    int ctrls = num_mem_ctrls > 0 ? num_mem_ctrls : (width >= 4 ? 8 : 4);
    ctrls = std::max(4, (ctrls / 4) * 4);
    const int per_side = ctrls / 4;
    auto edge_pos = [](int extent, int k, int of) {
        // k-th of `of` positions along an edge of `extent` tiles.
        return ((2 * k + 1) * extent) / (2 * of);
    };
    // On small meshes the computed corner positions of two edges can
    // coincide (e.g. 4x4 with 8 controllers puts the bottom and right
    // k=1 controllers both on tile (3,3)); stacking two controllers
    // on one tile silently halves the spread the interleave hash
    // assumes. Slide a colliding controller along its own edge to the
    // nearest free tile (preferring the higher position first, so
    // collision-free layouts — including the default 8x8 — keep their
    // exact historical tiles).
    auto take_edge_tile = [this](int px, int py, bool vary_x) {
        auto taken = [this](TileId t) {
            return std::find(memCtrlTiles.begin(), memCtrlTiles.end(),
                             t) != memCtrlTiles.end();
        };
        const int extent = vary_x ? meshWidth : meshHeight;
        const int pos = vary_x ? px : py;
        for (int d = 0; d < extent; d++) {
            for (const int sign : {1, -1}) {
                const int cand = pos + sign * d;
                if (cand < 0 || cand >= extent)
                    continue;
                const TileId t = vary_x ? tileAt(cand, py)
                                        : tileAt(px, cand);
                if (!taken(t)) {
                    memCtrlTiles.push_back(t);
                    return;
                }
                if (d == 0)
                    break; // +0 and -0 are the same candidate.
            }
        }
        // This edge is full (tiny mesh): take the first free
        // perimeter tile in row-major order, so the pick stays
        // deterministic.
        for (int y = 0; y < meshHeight; y++) {
            for (int x = 0; x < meshWidth; x++) {
                if (x != 0 && x != meshWidth - 1 && y != 0 &&
                    y != meshHeight - 1)
                    continue; // Interior tile.
                const TileId t = tileAt(x, y);
                if (!taken(t)) {
                    memCtrlTiles.push_back(t);
                    return;
                }
            }
        }
        // More controllers than perimeter tiles: stack on the
        // requested tile like the pre-dedup layout did.
        memCtrlTiles.push_back(vary_x ? tileAt(pos, py)
                                      : tileAt(px, pos));
    };
    for (int k = 0; k < per_side; k++) {
        const int px = edge_pos(width, k, per_side);
        const int py = edge_pos(height, k, per_side);
        take_edge_tile(px, 0, /*vary_x=*/true);           // top
        take_edge_tile(px, height - 1, /*vary_x=*/true);  // bottom
        take_edge_tile(0, py, /*vary_x=*/false);          // left
        take_edge_tile(width - 1, py, /*vary_x=*/false);  // right
    }

    // Hop tables. Every route query (per-message latency and flit-hop
    // accounting) reads these instead of re-deriving coordinates.
    // TileId is 16 bits, so no X-Y distance overflows a uint16_t.
    const auto tiles = static_cast<std::size_t>(numTiles());
    hopTbl.resize(tiles * tiles);
    ctrlHopTbl.resize(tiles * memCtrlTiles.size());
    for (TileId a = 0; a < numTiles(); a++) {
        const MeshCoord ca = coordOf(a);
        for (TileId b = 0; b < numTiles(); b++) {
            const MeshCoord cb = coordOf(b);
            hopTbl[a * tiles + b] = static_cast<std::uint16_t>(
                std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y));
        }
        for (std::size_t c = 0; c < memCtrlTiles.size(); c++) {
            ctrlHopTbl[a * memCtrlTiles.size() + c] =
                static_cast<std::uint16_t>(
                    hops(a, memCtrlTiles[c]) + 1);
        }
    }

    // Precompute distance-sorted tile lists for every origin.
    sortedTiles.resize(numTiles());
    for (TileId from = 0; from < numTiles(); from++) {
        auto &list = sortedTiles[from];
        list.resize(numTiles());
        for (TileId t = 0; t < numTiles(); t++)
            list[t] = t;
        std::stable_sort(list.begin(), list.end(),
                         [this, from](TileId a, TileId b) {
                             return hops(from, a) < hops(from, b);
                         });
    }

    // Optimistic compact placement around the chip's center point:
    // sort tiles by euclidean-ish (manhattan) distance from center and
    // build prefix-average distances.
    const double cx = (width - 1) / 2.0;
    const double cy = (height - 1) / 2.0;
    std::vector<std::pair<double, TileId>> by_center;
    for (TileId t = 0; t < numTiles(); t++) {
        const MeshCoord c = coordOf(t);
        const double d = std::abs(c.x - cx) + std::abs(c.y - cy);
        by_center.push_back({d, t});
    }
    std::stable_sort(by_center.begin(), by_center.end());
    centerDistPrefix.resize(numTiles() + 1);
    centerDistPrefix[0] = 0.0;
    for (int i = 0; i < numTiles(); i++)
        centerDistPrefix[i + 1] = centerDistPrefix[i] + by_center[i].first;
}

double
Mesh::distanceToPoint(TileId tile, double x, double y) const
{
    const MeshCoord c = coordOf(tile);
    return std::abs(c.x - x) + std::abs(c.y - y);
}

int
Mesh::memCtrlOf(LineAddr line) const
{
    const std::uint64_t page = line >> pageLineShift;
    return static_cast<int>(mix64(page * 0x51ED2700 + 17) %
                            memCtrlTiles.size());
}

int
Mesh::hopsToMemCtrl(TileId tile, LineAddr line) const
{
    return hopsToCtrl(tile, memCtrlOf(line));
}

double
Mesh::avgHopsToMemCtrl(TileId tile) const
{
    double sum = 0.0;
    for (TileId ctrl_tile : memCtrlTiles)
        sum += hops(tile, ctrl_tile) + 1;
    return sum / static_cast<double>(memCtrlTiles.size());
}

int
Mesh::nearestMemCtrl(TileId tile) const
{
    int best = 0;
    int best_hops = hops(tile, memCtrlTiles[0]);
    for (std::size_t c = 1; c < memCtrlTiles.size(); c++) {
        const int h = hops(tile, memCtrlTiles[c]);
        if (h < best_hops) {
            best_hops = h;
            best = static_cast<int>(c);
        }
    }
    return best;
}

const std::vector<TileId> &
Mesh::tilesByDistance(TileId from) const
{
    cdcs_assert(from < sortedTiles.size(), "tile out of range");
    return sortedTiles[from];
}

double
Mesh::optimisticDistance(double banks) const
{
    if (banks <= 0.0)
        return 0.0;
    const double capped = std::min(banks,
                                   static_cast<double>(numTiles()));
    const int whole = static_cast<int>(capped);
    double sum = centerDistPrefix[whole];
    if (whole < numTiles()) {
        const double frac = capped - whole;
        sum += frac *
            (centerDistPrefix[whole + 1] - centerDistPrefix[whole]);
    }
    return sum / capped;
}

} // namespace cdcs
