/**
 * @file
 * An LLC bank whose capacity is divided among virtual caches at
 * cache-line granularity, in the spirit of Vantage partitioning.
 *
 * Each virtual cache (VC) mapped to the bank has a capacity target; the
 * bank tracks per-VC occupancy and, on insertion, preferentially evicts
 * the LRU candidate belonging to an over-budget VC. This reproduces
 * Vantage's steady-state behaviour (actual occupancies track targets at
 * line granularity, partitions shrink smoothly when targets drop)
 * without modeling its aperture/demotion machinery; the substitution is
 * documented in DESIGN.md.
 *
 * Capacity left unallocated (sum of targets below bank size) is simply
 * never filled: a VC inserting beyond its target becomes the preferred
 * victim itself, so stale ways decay instead of being reused. This is
 * what lets CDCS "leave capacity unused" when extra capacity would hurt
 * on-chip latency (Sec. IV-C).
 */

#ifndef CDCS_CACHE_PARTITIONED_BANK_HH
#define CDCS_CACHE_PARTITIONED_BANK_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/cache_array.hh"
#include "common/types.hh"

namespace cdcs
{

/** Result of a bank access. */
struct BankAccessResult
{
    bool hit = false;
    /// Valid line was evicted to make room (miss fills only).
    bool evicted = false;
    /// The fill was dropped: the VC is at its target and owns no
    /// replaceable line in the set (Vantage churn containment — an
    /// over-budget partition can only victimize itself).
    bool bypassed = false;
    /// Evicted line's metadata (valid when evicted is true).
    LineAddr evictedAddr = 0;
    VcId evictedVc = invalidVc;
    std::uint64_t evictedSharers = 0;
};

/**
 * Partitioned LLC bank. VC ids index the per-VC occupancy/target
 * tables, which are sized up on demand; hardware would cap partitions
 * per bank (64 in the paper), which the reconfiguration runtime
 * respects when building placements.
 */
class PartitionedBank
{
  public:
    /**
     * Target value meaning "unmanaged": the VC is never treated as
     * over-budget. This is the default for VCs that have not been
     * given an explicit target (unpartitioned schemes like S-NUCA and
     * R-NUCA, and the bootstrap configuration before the first
     * reconfiguration), making the bank behave as a plain LRU cache.
     */
    static constexpr std::uint64_t unmanagedTarget =
        ~std::uint64_t{0};

    /**
     * @param num_lines Bank capacity in lines.
     * @param num_ways Associativity.
     * @param hash_seed Set-index hash seed.
     */
    PartitionedBank(std::uint64_t num_lines, std::uint32_t num_ways,
                    std::uint64_t hash_seed = 0xBA4C0DE);

    std::uint64_t numLines() const { return array.numLines(); }
    std::uint32_t numSets() const { return array.numSets(); }
    std::uint32_t numWays() const { return array.numWays(); }

    /**
     * Probe for a line; on a hit, update LRU and record the core as a
     * sharer. Does not fill on a miss (the move protocol may need to
     * chase the line in its old bank first).
     *
     * @return True on hit.
     */
    bool probeHit(LineAddr addr, VcId vc, TileId core);

    /**
     * Fill a line after a miss (from memory). Picks a victim per the
     * partitioning policy and may evict.
     *
     * @param addr Line address.
     * @param vc Virtual cache the line belongs to.
     * @param core Requesting core (recorded as a sharer).
     * @return Eviction information.
     */
    BankAccessResult fill(LineAddr addr, VcId vc, TileId core);

    /**
     * Convenience probe-then-fill access (tests and simple callers).
     * @return Hit/miss and eviction information.
     */
    BankAccessResult access(LineAddr addr, VcId vc, TileId core);

    /**
     * Probe without filling; used by the demand-move protocol to check
     * the old bank. On hit the line is invalidated and its metadata
     * returned (it moves to the new bank).
     *
     * @return True and metadata if the line was present.
     */
    bool extractForMove(LineAddr addr, CacheLine &out);

    /**
     * Install a line that migrated from another bank (demand move),
     * preserving its sharer set. May evict.
     */
    BankAccessResult installMoved(const CacheLine &moved, VcId vc);

    /** Invalidate one line if present. @return True if it was valid. */
    bool invalidateLine(LineAddr addr);

    /** Set the capacity target (in lines) of a VC. */
    void setTarget(VcId vc, std::uint64_t target_lines);

    /** Clear all targets (start of a reconfiguration). */
    void clearTargets();

    /** Current occupancy of a VC in this bank, in lines. */
    std::uint64_t occupancy(VcId vc) const;

    /** Current target of a VC in this bank, in lines. */
    std::uint64_t target(VcId vc) const;

    /** Total valid lines in the bank. */
    std::uint64_t totalOccupancy() const { return totalValid; }

    /**
     * Walk `num_sets` sets starting at the internal walk cursor and
     * invalidate every line for which `should_go` returns true. Models
     * the background/bulk invalidation walkers.
     *
     * @param num_sets Sets to examine in this step.
     * @param should_go Predicate deciding if a line must leave.
     * @param invalidated Incremented per invalidated line.
     * @return True when the cursor wrapped (walk complete).
     */
    bool walkInvalidate(std::uint32_t num_sets,
                        const std::function<bool(const CacheLine &)>
                            &should_go,
                        std::uint64_t &invalidated);

    /**
     * Like walkInvalidate, but extracts matching lines into `out`
     * (with their metadata) instead of dropping them, so the caller
     * can reinstall them elsewhere (background moves, Sec. IV-H).
     *
     * @return True when the cursor wrapped (walk complete).
     */
    bool walkCollect(std::uint32_t num_sets,
                     const std::function<bool(const CacheLine &)>
                         &should_go,
                     std::vector<CacheLine> &out);

    /** Reset the walk cursor to set 0. */
    void resetWalk() { walkCursor = 0; }

    /** Direct read-only access for tests and debugging tools. */
    const CacheArray &rawArray() const { return array; }

  private:
    /** Occupancy and capacity target of one VC, in lines. */
    struct VcState
    {
        std::uint64_t occupancy = 0;
        std::uint64_t target = unmanagedTarget;
    };

    /** Ensure the per-VC table can index vc. */
    void growTables(VcId vc);

    /** True when the VC occupies more than its target. */
    bool
    overBudget(VcId vc) const
    {
        return vc < vcs.size() && vcs[vc].occupancy > vcs[vc].target;
    }

    /**
     * Pick a victim way in `set` for an insertion:
     * 1. LRU among lines of over-budget VCs (occupancy > target);
     * 2. any invalid way;
     * 3. global LRU of the set.
     */
    std::uint32_t pickVictim(std::uint32_t set) const;

    /** LRU way holding one of `vc`'s own lines (numWays if none). */
    std::uint32_t pickOwnVictim(std::uint32_t set, VcId vc) const;

    /** True when the VC is managed and at/over its target. */
    bool atTarget(VcId vc) const;

    /** Shared insert path for fills and moved-in lines. */
    BankAccessResult insertLine(LineAddr addr, VcId vc,
                                std::uint64_t sharers);

    /** Bookkeeping for removing a valid line of `vc`. */
    void noteEviction(VcId vc);

    /**
     * Shared body of the walks: remove every valid line `should_go`
     * selects in the next `num_sets` sets, appending it to `out` when
     * non-null and counting it in `removed`.
     */
    bool walk(std::uint32_t num_sets,
              const std::function<bool(const CacheLine &)> &should_go,
              std::vector<CacheLine> *out, std::uint64_t &removed);

    CacheArray array;
    std::vector<VcState> vcs;
    std::uint64_t totalValid = 0;
    std::uint32_t walkCursor = 0;
};

} // namespace cdcs

#endif // CDCS_CACHE_PARTITIONED_BANK_HH
