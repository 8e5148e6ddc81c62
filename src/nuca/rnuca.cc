#include "nuca/rnuca.hh"

namespace cdcs
{

RNucaPolicy::RNucaPolicy(const Mesh *mesh_ptr, int banks_per_tile,
                         std::uint64_t seed)
    : mesh(mesh_ptr), banksPerTile(banks_per_tile), hashSeed(seed)
{
}

MapResult
RNucaPolicy::map(ThreadId /*thread*/, TileId core, VcId /*vc*/,
                 LineAddr line)
{
    MapResult res;
    const std::uint64_t page = pageOf(line);
    const auto [slot, inserted] = pageTable.tryEmplace(page);
    PageInfo &info = *slot;
    if (inserted) {
        // First touch: classify private to this core.
        info.cls = PageClass::Private;
        info.ownerCore = core;
    }

    switch (info.cls) {
      case PageClass::Private:
        if (info.ownerCore == core) {
            res.bank = localBank(core, line);
            return res;
        }
        // Second core touched a private page: reclassify to shared
        // and flush it from the old owner's bank (page remaps are the
        // expensive operation in shared-baseline D-NUCAs, Sec. II-A).
        res.invalidatePage = true;
        res.invalidateBank = localBank(info.ownerCore, line);
        res.invalidatePageBase = page << pageLineShift;
        info.cls = PageClass::Shared;
        info.ownerCore = invalidTile;
        [[fallthrough]];
      case PageClass::Shared:
        res.bank = interleavedBank(line);
        return res;
      case PageClass::Instruction:
        res.bank = rotationalBank(core, line);
        return res;
    }
    return res;
}

TileId
RNucaPolicy::rotationalBank(TileId core, LineAddr line) const
{
    // 4-way rotational interleaving: the cluster is the core's tile
    // plus its +x, +y and +x+y neighbors (wrapping at the mesh edge),
    // and the bank within the cluster is picked by address so that
    // neighboring cores rotate through different replicas.
    const MeshCoord c = mesh->coordOf(core);
    const int dx = static_cast<int>(mix64(line ^ hashSeed ^ 0xC0DE) & 1);
    const int dy = static_cast<int>((mix64(line ^ hashSeed ^ 0xC0DE) >> 1)
                                    & 1);
    const int x = (c.x + dx) % mesh->width();
    const int y = (c.y + dy) % mesh->height();
    const TileId tile = mesh->tileAt(x, y);
    const auto sub = static_cast<TileId>(
        mix64(line ^ (hashSeed * 7)) % banksPerTile);
    return static_cast<TileId>(tile * banksPerTile + sub);
}

PageClass
RNucaPolicy::classOf(LineAddr line) const
{
    const PageInfo *info = pageTable.find(pageOf(line));
    return info == nullptr ? PageClass::Private : info->cls;
}

} // namespace cdcs
