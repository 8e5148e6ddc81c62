/**
 * @file
 * Set-associative tag store with per-set LRU recency ranks and per-line
 * metadata (owning virtual cache, sharer bitmask). The base building
 * block for LLC banks.
 *
 * Each set is one contiguous, 64 B-aligned block holding, in order,
 * its W tags (64-bit line addresses), W VC ids (16-bit), W recency
 * ranks (8-bit) and W sharer masks (64-bit), padded to a multiple of
 * 64 B: 320 B for a 16-way set. A lookup reads only the tags; a victim
 * pick reads the tags, VC ids and ranks, which sit next to each other
 * at the front of the block. ARCHITECTURE.md ("The cache layer") explains
 * why rank order is the LRU order the victim pick needs.
 */

#ifndef CDCS_CACHE_CACHE_ARRAY_HH
#define CDCS_CACHE_CACHE_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace cdcs
{

/** One tag-store entry, as a value (the store keeps no CacheLines). */
struct CacheLine
{
    LineAddr addr = 0;          ///< Full line address (simulation only).
    VcId vc = invalidVc;        ///< Owning virtual cache / partition.
    std::uint64_t sharers = 0;  ///< Bitmask of cores with an L2 copy.
    bool valid = false;
};

/**
 * A sets x ways tag store. Victim selection policy lives in the caller
 * (PartitionedBank); this class provides lookup, install, invalidate,
 * recency and per-way accessors.
 *
 * Recency: the ranks of a set are a permutation of 0..W-1, rank 0 the
 * most recently used way. install() and touch() (a probe hit) move a
 * way to rank 0 and age the ways that were ahead of it by one; nothing
 * else reorders them. Among valid ways the highest rank is the LRU.
 */
class CacheArray
{
  public:
    /**
     * Tag of an invalid way. No real line uses it: line addresses are
     * `vc << 40 | offset`, below 2^56.
     */
    static constexpr LineAddr invalidTag = ~LineAddr{0};

    /** Largest associativity an 8-bit recency rank can order. */
    static constexpr std::uint32_t maxWays = 256;

    /**
     * @param num_sets Number of sets (power of two).
     * @param num_ways Associativity (1..maxWays).
     * @param hash_seed Seed decorrelating the set-index hash from the
     *        hashes used elsewhere (bank selection, monitors).
     */
    CacheArray(std::uint32_t num_sets, std::uint32_t num_ways,
               std::uint64_t hash_seed = 0xC0FFEE);

    std::uint32_t numSets() const { return sets; }
    std::uint32_t numWays() const { return ways; }
    std::uint64_t numLines() const { return std::uint64_t{sets} * ways; }

    /** Set index for a line address. */
    std::uint32_t
    setOf(LineAddr addr) const
    {
        return static_cast<std::uint32_t>(mix64(addr ^ seed) & (sets - 1));
    }

    /**
     * Way of `set` holding `addr`, or numWays() on a miss. Leaves
     * recency untouched.
     */
    std::uint32_t
    find(std::uint32_t set, LineAddr addr) const
    {
        const std::uint64_t *tags = block(set);
        for (std::uint32_t w = 0; w < ways; w++) {
            if (tags[w] == addr)
                return w;
        }
        return ways;
    }

    bool
    valid(std::uint32_t set, std::uint32_t way) const
    {
        return block(set)[way] != invalidTag;
    }

    LineAddr
    addr(std::uint32_t set, std::uint32_t way) const
    {
        return block(set)[way];
    }

    VcId
    vc(std::uint32_t set, std::uint32_t way) const
    {
        VcId id = invalidVc;
        std::memcpy(&id, bytes(set) + vcOffset + way * sizeof(VcId),
                    sizeof(VcId));
        return id;
    }

    std::uint64_t
    sharers(std::uint32_t set, std::uint32_t way) const
    {
        return block(set)[sharerWord + way];
    }

    /** Recency rank: 0 for the set's MRU way, W-1 for its LRU way. */
    std::uint32_t
    rank(std::uint32_t set, std::uint32_t way) const
    {
        return bytes(set)[rankOffset + way];
    }

    /** OR `mask` into the sharer set of the line at (set, way). */
    void
    addSharers(std::uint32_t set, std::uint32_t way, std::uint64_t mask)
    {
        block(set)[sharerWord + way] |= mask;
    }

    /** Make `way` its set's MRU (a probe hit). */
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        unsigned char *ranks = bytes(set) + rankOffset;
        const unsigned char old = ranks[way];
        // A local bound: stores through unsigned char may alias
        // `ways`, which would otherwise be reloaded every iteration.
        const std::uint32_t n = ways;
        for (std::uint32_t w = 0; w < n; w++)
            ranks[w] = static_cast<unsigned char>(ranks[w] +
                                                  (ranks[w] < old ? 1 : 0));
        ranks[way] = 0;
    }

    /**
     * Install a line into a given way of its set, overwriting whatever
     * is there, and make it the set's MRU. The caller must have chosen
     * the victim beforehand.
     */
    void
    install(std::uint32_t set, std::uint32_t way, LineAddr line_addr,
            VcId line_vc, std::uint64_t line_sharers)
    {
        cdcs_assert(line_addr != invalidTag,
                    "line address collides with the invalid-way tag");
        std::uint64_t *words = block(set);
        words[way] = line_addr;
        words[sharerWord + way] = line_sharers;
        std::memcpy(bytes(set) + vcOffset + way * sizeof(VcId), &line_vc,
                    sizeof(VcId));
        touch(set, way);
    }

    /** Invalidate the line at (set, way). */
    void
    invalidate(std::uint32_t set, std::uint32_t way)
    {
        block(set)[way] = invalidTag;
    }

    /** Copy of the line at (set, way); a default CacheLine if invalid. */
    CacheLine
    entry(std::uint32_t set, std::uint32_t way) const
    {
        if (!valid(set, way))
            return CacheLine{};
        return CacheLine{addr(set, way), vc(set, way), sharers(set, way),
                         true};
    }

    /** Invalidate every line in the array. */
    void invalidateAll();

    /** Count of currently valid lines. */
    std::uint64_t numValid() const;

  private:
    const std::uint64_t *
    block(std::uint32_t set) const
    {
        return storage.data() + firstWord + std::size_t{set} * strideWords;
    }

    std::uint64_t *
    block(std::uint32_t set)
    {
        return storage.data() + firstWord + std::size_t{set} * strideWords;
    }

    // The VC ids and ranks are read through unsigned char, the one
    // view of the 64-bit storage words the aliasing rules allow.
    const unsigned char *
    bytes(std::uint32_t set) const
    {
        return reinterpret_cast<const unsigned char *>(block(set));
    }

    unsigned char *
    bytes(std::uint32_t set)
    {
        return reinterpret_cast<unsigned char *>(block(set));
    }

    std::uint32_t sets;
    std::uint32_t ways;
    std::uint64_t seed;
    std::uint32_t vcOffset = 0;    ///< Byte offset of the VC ids.
    std::uint32_t rankOffset = 0;  ///< Byte offset of the ranks.
    std::uint32_t sharerWord = 0;  ///< Word offset of the sharer masks.
    std::uint32_t strideWords = 0; ///< Words per block (a multiple of 8).
    /// Words skipped at the front of `storage` so every block starts
    /// on a 64 B boundary. A copied array keeps the offset, so its
    /// blocks may sit unaligned; its contents stay correct.
    std::size_t firstWord = 0;
    std::vector<std::uint64_t> storage;
};

} // namespace cdcs

#endif // CDCS_CACHE_CACHE_ARRAY_HH
