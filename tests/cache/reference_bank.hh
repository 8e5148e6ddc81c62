/**
 * @file
 * Test-only reference model of a partitioned LLC bank: the array-of-
 * structs tag store (one 40 B line per way, a 64-bit global LRU stamp
 * per line) and the victim logic PartitionedBank had before the store
 * moved to per-set blocks with 8-bit recency ranks. The differential
 * test drives it and PartitionedBank with the same operations and
 * requires identical results, which pins the claim that rank order
 * equals stamp order among valid lines.
 */

#ifndef CDCS_TESTS_CACHE_REFERENCE_BANK_HH
#define CDCS_TESTS_CACHE_REFERENCE_BANK_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace cdcs::ref
{

/** One way of the reference store. */
struct Line
{
    LineAddr addr = 0;
    VcId vc = invalidVc;
    std::uint64_t sharers = 0;
    std::uint64_t lruStamp = 0; ///< Global timestamp for LRU.
    bool valid = false;
};

/** Result of an insertion, field for field as BankAccessResult. */
struct Result
{
    bool hit = false;
    bool evicted = false;
    bool bypassed = false;
    LineAddr evictedAddr = 0;
    VcId evictedVc = invalidVc;
    std::uint64_t evictedSharers = 0;
};

/** The reference bank (same constructor arguments as PartitionedBank). */
class Bank
{
  public:
    static constexpr std::uint64_t unmanagedTarget = ~std::uint64_t{0};

    Bank(std::uint64_t num_lines, std::uint32_t num_ways,
         std::uint64_t hash_seed)
        : sets(static_cast<std::uint32_t>(num_lines / num_ways)),
          ways(num_ways), seed(hash_seed), lines(num_lines)
    {
    }

    std::uint32_t numSets() const { return sets; }

    bool
    probeHit(LineAddr addr, VcId vc, TileId core)
    {
        Line *line = probe(addr);
        if (line == nullptr)
            return false;
        cdcs_assert(line->vc == vc, "line owned by a different VC");
        line->sharers |= 1ull << (core % 64);
        return true;
    }

    Result
    fill(LineAddr addr, VcId vc, TileId core)
    {
        return insertLine(addr, vc, 1ull << (core % 64));
    }

    Result
    access(LineAddr addr, VcId vc, TileId core)
    {
        if (probeHit(addr, vc, core)) {
            Result res;
            res.hit = true;
            return res;
        }
        return fill(addr, vc, core);
    }

    bool
    extractForMove(LineAddr addr, Line &out)
    {
        Line *line = probe(addr);
        if (line == nullptr)
            return false;
        out = *line;
        noteEviction(*line);
        line->valid = false;
        return true;
    }

    Result
    installMoved(const Line &moved, VcId vc)
    {
        Result res = insertLine(moved.addr, vc, moved.sharers);
        if (res.bypassed) {
            res.evictedAddr = moved.addr;
            res.evictedVc = moved.vc;
            res.evictedSharers = moved.sharers;
        }
        return res;
    }

    bool
    invalidateLine(LineAddr addr)
    {
        Line *line = probe(addr);
        if (line == nullptr)
            return false;
        noteEviction(*line);
        line->valid = false;
        return true;
    }

    void
    setTarget(VcId vc, std::uint64_t target_lines)
    {
        growTables(vc);
        vcTarget[vc] = target_lines;
    }

    void
    clearTargets()
    {
        for (auto &t : vcTarget)
            t = unmanagedTarget;
    }

    std::uint64_t
    occupancy(VcId vc) const
    {
        return vc < vcOccupancy.size() ? vcOccupancy[vc] : 0;
    }

    std::uint64_t totalOccupancy() const { return totalValid; }

    std::uint64_t
    numValid() const
    {
        std::uint64_t count = 0;
        for (const Line &line : lines)
            count += line.valid ? 1 : 0;
        return count;
    }

    /** Way (set, way) of the store, valid or not. */
    const Line &
    entry(std::uint32_t set, std::uint32_t way) const
    {
        return lines[static_cast<std::size_t>(set) * ways + way];
    }

    /** walkInvalidate (out == nullptr) and walkCollect in one body. */
    bool
    walk(std::uint32_t num_sets,
         const std::function<bool(const Line &)> &should_go,
         std::vector<Line> *out, std::uint64_t &removed)
    {
        for (std::uint32_t i = 0; i < num_sets; i++) {
            if (walkCursor >= sets) {
                walkCursor = 0;
                return true;
            }
            for (std::uint32_t w = 0; w < ways; w++) {
                Line &line = at(walkCursor, w);
                if (line.valid && should_go(line)) {
                    if (out != nullptr)
                        out->push_back(line);
                    noteEviction(line);
                    line.valid = false;
                    removed++;
                }
            }
            walkCursor++;
        }
        if (walkCursor >= sets) {
            walkCursor = 0;
            return true;
        }
        return false;
    }

  private:
    std::uint32_t
    setOf(LineAddr addr) const
    {
        return static_cast<std::uint32_t>(mix64(addr ^ seed) & (sets - 1));
    }

    Line &
    at(std::uint32_t set, std::uint32_t way)
    {
        return lines[static_cast<std::size_t>(set) * ways + way];
    }

    Line *
    probe(LineAddr addr)
    {
        const std::uint32_t set = setOf(addr);
        for (std::uint32_t w = 0; w < ways; w++) {
            Line &line = at(set, w);
            if (line.valid && line.addr == addr) {
                line.lruStamp = ++lruClock;
                return &line;
            }
        }
        return nullptr;
    }

    void
    growTables(VcId vc)
    {
        if (vc >= vcOccupancy.size()) {
            vcOccupancy.resize(vc + 1, 0);
            vcTarget.resize(vc + 1, unmanagedTarget);
        }
    }

    std::uint32_t
    pickVictim(std::uint32_t set)
    {
        std::uint32_t over_budget_way = ways;
        std::uint64_t over_budget_lru =
            std::numeric_limits<std::uint64_t>::max();
        std::uint32_t invalid_way = ways;
        std::uint32_t global_way = 0;
        std::uint64_t global_lru = std::numeric_limits<std::uint64_t>::max();
        for (std::uint32_t w = 0; w < ways; w++) {
            const Line &line = at(set, w);
            if (!line.valid) {
                if (invalid_way == ways)
                    invalid_way = w;
                continue;
            }
            if (line.lruStamp < global_lru) {
                global_lru = line.lruStamp;
                global_way = w;
            }
            const std::uint64_t occ =
                line.vc < vcOccupancy.size() ? vcOccupancy[line.vc] : 0;
            const std::uint64_t tgt = line.vc < vcTarget.size()
                ? vcTarget[line.vc] : unmanagedTarget;
            if (occ > tgt && line.lruStamp < over_budget_lru) {
                over_budget_lru = line.lruStamp;
                over_budget_way = w;
            }
        }
        if (over_budget_way < ways)
            return over_budget_way;
        if (invalid_way < ways)
            return invalid_way;
        return global_way;
    }

    std::uint32_t
    pickOwnVictim(std::uint32_t set, VcId vc)
    {
        std::uint32_t own_way = ways;
        std::uint64_t own_lru = std::numeric_limits<std::uint64_t>::max();
        for (std::uint32_t w = 0; w < ways; w++) {
            const Line &line = at(set, w);
            if (line.valid && line.vc == vc && line.lruStamp < own_lru) {
                own_lru = line.lruStamp;
                own_way = w;
            }
        }
        return own_way;
    }

    bool
    atTarget(VcId vc) const
    {
        if (vc >= vcTarget.size() || vcTarget[vc] == unmanagedTarget)
            return false;
        return vcOccupancy[vc] >= vcTarget[vc];
    }

    Result
    insertLine(LineAddr addr, VcId vc, std::uint64_t sharers)
    {
        growTables(vc);
        Result res;
        const std::uint32_t set = setOf(addr);
        std::uint32_t way;
        if (atTarget(vc)) {
            way = pickOwnVictim(set, vc);
            if (way >= ways) {
                res.bypassed = true;
                return res;
            }
        } else {
            way = pickVictim(set);
        }
        Line &victim = at(set, way);
        if (victim.valid) {
            res.evicted = true;
            res.evictedAddr = victim.addr;
            res.evictedVc = victim.vc;
            res.evictedSharers = victim.sharers;
            noteEviction(victim);
        }
        victim.addr = addr;
        victim.vc = vc;
        victim.sharers = sharers;
        victim.valid = true;
        victim.lruStamp = ++lruClock;
        vcOccupancy[vc]++;
        totalValid++;
        return res;
    }

    void
    noteEviction(const Line &line)
    {
        cdcs_assert(line.vc < vcOccupancy.size() &&
                        vcOccupancy[line.vc] > 0,
                    "eviction from VC with zero occupancy");
        vcOccupancy[line.vc]--;
        totalValid--;
    }

    std::uint32_t sets;
    std::uint32_t ways;
    std::uint64_t seed;
    std::uint64_t lruClock = 0;
    std::vector<Line> lines;
    std::vector<std::uint64_t> vcOccupancy;
    std::vector<std::uint64_t> vcTarget;
    std::uint64_t totalValid = 0;
    std::uint32_t walkCursor = 0;
};

} // namespace cdcs::ref

#endif // CDCS_TESTS_CACHE_REFERENCE_BANK_HH
