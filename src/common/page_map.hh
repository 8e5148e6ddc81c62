/**
 * @file
 * Flat open-addressing hash map from page numbers to per-page
 * records: the page table behind R-NUCA classification, memory
 * placement and capacity tiering. Every simulated memory access looks
 * a page up, so the map trades generality for a short probe: slots
 * are found by linear probing from a mixed hash over a flat key
 * array, and the power-of-two slot count doubles when the map passes
 * 7/8 load.
 *
 * The records do not sit in the slots. They are appended to a dense
 * array in insertion order, and each slot holds its record's 32-bit
 * index beside its key. A doubling therefore reinserts only keys and
 * indices, and the records cost memory in proportion to the pages
 * stored, not to the slot count. Only the 12 B of key and index per
 * slot jump when the slot count doubles.
 *
 * Contract, narrower than std::unordered_map's:
 *  - The all-ones key is the empty-slot marker and cannot be stored
 *    (page numbers are line addresses >> 6, so no page reaches it).
 *  - There is no erase.
 *  - A value pointer stays valid only until the next tryEmplace that
 *    inserts; the record array grows like a std::vector.
 *  - forEach visits records in slot order, which is a pure function
 *    of the insertion sequence, but results must not depend on it:
 *    callers that rank pages sort by their own keys first.
 */

#ifndef CDCS_COMMON_PAGE_MAP_HH
#define CDCS_COMMON_PAGE_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace cdcs
{

template <typename V>
class PageMap
{
  public:
    /** Key marking an empty slot; never a valid page. */
    static constexpr std::uint64_t emptyKey = ~std::uint64_t{0};

    PageMap()
        : keys(minCapacity, emptyKey), index(minCapacity),
          mask(minCapacity - 1)
    {
    }

    /**
     * The record of `key`, value-initialized on first insertion.
     * @return The record and whether this call inserted it.
     */
    std::pair<V *, bool>
    tryEmplace(std::uint64_t key)
    {
        cdcs_assert(key != emptyKey, "PageMap key is the empty marker");
        std::size_t slot = home(key);
        while (keys[slot] != emptyKey) {
            if (keys[slot] == key)
                return {&vals[index[slot]], false};
            slot = (slot + 1) & mask;
        }
        if ((vals.size() + 1) * 8 > keys.size() * 7) {
            rehash(keys.size() * 2);
            slot = freeSlot(key);
        }
        keys[slot] = key;
        index[slot] = static_cast<std::uint32_t>(vals.size());
        vals.emplace_back();
        return {&vals.back(), true};
    }

    /** The record of `key`, or nullptr when absent. */
    const V *
    find(std::uint64_t key) const
    {
        // The empty marker never matches: its probe stops at the
        // first empty slot.
        for (std::size_t slot = home(key); keys[slot] != emptyKey;
             slot = (slot + 1) & mask) {
            if (keys[slot] == key)
                return &vals[index[slot]];
        }
        return nullptr;
    }

    /** Call `fn(key, record)` once per stored record, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t slot = 0; slot < keys.size(); slot++) {
            if (keys[slot] != emptyKey)
                fn(keys[slot], vals[index[slot]]);
        }
    }

    /** Records stored. */
    std::size_t size() const { return vals.size(); }

  private:
    static constexpr std::size_t minCapacity = 16;

    std::size_t home(std::uint64_t key) const { return mix64(key) & mask; }

    /** The first empty slot on `key`'s probe path. */
    std::size_t
    freeSlot(std::uint64_t key) const
    {
        std::size_t slot = home(key);
        while (keys[slot] != emptyKey)
            slot = (slot + 1) & mask;
        return slot;
    }

    /** Reinsert every key and index into `capacity` (a power of two) slots. */
    void
    rehash(std::size_t capacity)
    {
        cdcs_assert(capacity <= (std::size_t{1} << 32),
                    "PageMap record index exceeds 32 bits");
        const std::vector<std::uint64_t> old_keys = std::exchange(
            keys, std::vector<std::uint64_t>(capacity, emptyKey));
        const std::vector<std::uint32_t> old_index = std::exchange(
            index, std::vector<std::uint32_t>(capacity));
        mask = capacity - 1;
        for (std::size_t i = 0; i < old_keys.size(); i++) {
            if (old_keys[i] == emptyKey)
                continue;
            const std::size_t slot = freeSlot(old_keys[i]);
            keys[slot] = old_keys[i];
            index[slot] = old_index[i];
        }
    }

    /** Per-slot key, or emptyKey. */
    std::vector<std::uint64_t> keys;
    /** Per-slot index of the key's record in vals. */
    std::vector<std::uint32_t> index;
    /** Records in insertion order. */
    std::vector<V> vals;
    std::size_t mask;
};

} // namespace cdcs

#endif // CDCS_COMMON_PAGE_MAP_HH
