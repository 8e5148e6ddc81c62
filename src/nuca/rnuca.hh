/**
 * @file
 * Reactive NUCA (R-NUCA) [Hardavellas et al., ISCA'09]: page-grained
 * classification into private, shared and instruction classes with
 * class-specialized placement:
 *
 *  - private pages live in the first-touch core's local bank;
 *  - shared data is address-interleaved across all banks;
 *  - instruction pages use rotational interleaving over a 4-bank
 *    neighborhood cluster.
 *
 * Reclassification (private -> shared on a second core's touch) is
 * expensive in shared-baseline schemes: the page's lines must be
 * flushed from the old bank, which the policy reports via the
 * MapResult directive.
 */

#ifndef CDCS_NUCA_RNUCA_HH
#define CDCS_NUCA_RNUCA_HH

#include "common/page_map.hh"
#include "nuca/policy.hh"

namespace cdcs
{

/** R-NUCA page classes. */
enum class PageClass : std::uint8_t
{
    Private,
    Shared,
    Instruction
};

/** R-NUCA mapping policy. */
class RNucaPolicy : public NucaPolicy
{
  public:
    /**
     * @param mesh Chip topology (for rotational clusters).
     * @param banks_per_tile Banks per tile.
     * @param seed Interleaving hash seed.
     */
    RNucaPolicy(const Mesh *mesh, int banks_per_tile,
                std::uint64_t seed = 0x2DCA);

    MapResult map(ThreadId thread, TileId core, VcId vc,
                  LineAddr line) override;

    /**
     * Map an instruction-page access: rotational interleaving over
     * the 4-bank cluster around the core (indexed by line address).
     * Exposed for direct use/testing; the synthetic workloads have
     * negligible code footprints.
     */
    TileId rotationalBank(TileId core, LineAddr line) const;

    /** Class currently recorded for a page (Private if untracked). */
    PageClass classOf(LineAddr line) const;

  private:
    struct PageInfo
    {
        PageClass cls = PageClass::Private;
        TileId ownerCore = invalidTile;
    };

    const Mesh *mesh;
    int banksPerTile;
    std::uint64_t hashSeed;
    PageMap<PageInfo> pageTable;

    std::uint64_t
    pageOf(LineAddr line) const
    {
        return line >> pageLineShift;
    }

    TileId
    localBank(TileId core, LineAddr line) const
    {
        // With several banks per tile, interleave within the tile.
        const auto sub = static_cast<TileId>(
            mix64(line ^ hashSeed) % banksPerTile);
        return static_cast<TileId>(core * banksPerTile + sub);
    }

    TileId
    interleavedBank(LineAddr line) const
    {
        const std::uint64_t banks =
            static_cast<std::uint64_t>(mesh->numTiles()) * banksPerTile;
        return static_cast<TileId>(mix64(line ^ (hashSeed * 3)) % banks);
    }
};

} // namespace cdcs

#endif // CDCS_NUCA_RNUCA_HH
