#include "cache/partitioned_bank.hh"

#include "common/log.hh"

namespace cdcs
{

PartitionedBank::PartitionedBank(std::uint64_t num_lines,
                                 std::uint32_t num_ways,
                                 std::uint64_t hash_seed)
    : array(static_cast<std::uint32_t>(num_lines / num_ways), num_ways,
            hash_seed)
{
    cdcs_assert(num_lines % num_ways == 0,
                "bank lines must be a multiple of associativity");
}

void
PartitionedBank::growTables(VcId vc)
{
    if (vc >= vcs.size())
        vcs.resize(vc + 1);
}

std::uint32_t
PartitionedBank::pickVictim(std::uint32_t set) const
{
    // Victim priority: (1) LRU line of an over-budget VC — including
    // the inserting VC itself once it exceeds its own target, which is
    // what keeps unallocated capacity unused (Sec. IV-C); (2) an
    // invalid way (partitions still growing toward their targets);
    // (3) the set's global LRU (set-level skew with all VCs at
    // target). The LRU is the highest rank; ranks are distinct, so
    // "rank + 1 > best" with best = 0 picks the unique maximum.
    const std::uint32_t ways = array.numWays();
    std::uint32_t over_budget_way = ways;
    std::uint32_t over_budget_best = 0;
    std::uint32_t invalid_way = ways;
    std::uint32_t global_way = 0;
    std::uint32_t global_best = 0;

    for (std::uint32_t w = 0; w < ways; w++) {
        if (!array.valid(set, w)) {
            if (invalid_way == ways)
                invalid_way = w;
            continue;
        }
        const std::uint32_t score = array.rank(set, w) + 1;
        if (score > global_best) {
            global_best = score;
            global_way = w;
        }
        if (score > over_budget_best && overBudget(array.vc(set, w))) {
            over_budget_best = score;
            over_budget_way = w;
        }
    }
    if (over_budget_way < ways)
        return over_budget_way;
    if (invalid_way < ways)
        return invalid_way;
    return global_way;
}

void
PartitionedBank::noteEviction(VcId vc)
{
    cdcs_assert(vc < vcs.size() && vcs[vc].occupancy > 0,
                "eviction from VC with zero occupancy");
    vcs[vc].occupancy--;
    totalValid--;
}

bool
PartitionedBank::probeHit(LineAddr addr, VcId vc, TileId core)
{
    const std::uint32_t set = array.setOf(addr);
    const std::uint32_t way = array.find(set, addr);
    if (way == array.numWays())
        return false;
    cdcs_assert(array.vc(set, way) == vc, "line owned by a different VC");
    array.touch(set, way);
    array.addSharers(set, way, 1ull << (core % 64));
    return true;
}

std::uint32_t
PartitionedBank::pickOwnVictim(std::uint32_t set, VcId vc) const
{
    const std::uint32_t ways = array.numWays();
    std::uint32_t own_way = ways;
    std::uint32_t own_best = 0;
    for (std::uint32_t w = 0; w < ways; w++) {
        const std::uint32_t score = array.rank(set, w) + 1;
        if (array.valid(set, w) && array.vc(set, w) == vc &&
            score > own_best) {
            own_best = score;
            own_way = w;
        }
    }
    return own_way;
}

bool
PartitionedBank::atTarget(VcId vc) const
{
    if (vc >= vcs.size() || vcs[vc].target == unmanagedTarget)
        return false;
    return vcs[vc].occupancy >= vcs[vc].target;
}

BankAccessResult
PartitionedBank::insertLine(LineAddr addr, VcId vc,
                            std::uint64_t sharers)
{
    growTables(vc);
    BankAccessResult res;
    const std::uint32_t set = array.setOf(addr);

    std::uint32_t way;
    if (atTarget(vc)) {
        // Vantage churn containment: a partition at its target can
        // only replace its own lines; if it owns none in this set,
        // the fill is dropped rather than displacing another VC.
        way = pickOwnVictim(set, vc);
        if (way >= array.numWays()) {
            res.bypassed = true;
            return res;
        }
    } else {
        way = pickVictim(set);
    }

    if (array.valid(set, way)) {
        res.evicted = true;
        res.evictedAddr = array.addr(set, way);
        res.evictedVc = array.vc(set, way);
        res.evictedSharers = array.sharers(set, way);
        noteEviction(res.evictedVc);
    }
    array.install(set, way, addr, vc, sharers);
    vcs[vc].occupancy++;
    totalValid++;
    return res;
}

BankAccessResult
PartitionedBank::fill(LineAddr addr, VcId vc, TileId core)
{
    return insertLine(addr, vc, 1ull << (core % 64));
}

BankAccessResult
PartitionedBank::access(LineAddr addr, VcId vc, TileId core)
{
    if (probeHit(addr, vc, core)) {
        BankAccessResult res;
        res.hit = true;
        return res;
    }
    return fill(addr, vc, core);
}

bool
PartitionedBank::extractForMove(LineAddr addr, CacheLine &out)
{
    const std::uint32_t set = array.setOf(addr);
    const std::uint32_t way = array.find(set, addr);
    if (way == array.numWays())
        return false;
    out = array.entry(set, way);
    noteEviction(out.vc);
    array.invalidate(set, way);
    return true;
}

BankAccessResult
PartitionedBank::installMoved(const CacheLine &moved, VcId vc)
{
    BankAccessResult res = insertLine(moved.addr, vc, moved.sharers);
    if (res.bypassed) {
        // The moved line was dropped at its destination; report its
        // sharers so the caller can account the L2 invalidations.
        res.evictedAddr = moved.addr;
        res.evictedVc = moved.vc;
        res.evictedSharers = moved.sharers;
    }
    return res;
}

bool
PartitionedBank::invalidateLine(LineAddr addr)
{
    const std::uint32_t set = array.setOf(addr);
    const std::uint32_t way = array.find(set, addr);
    if (way == array.numWays())
        return false;
    noteEviction(array.vc(set, way));
    array.invalidate(set, way);
    return true;
}

void
PartitionedBank::setTarget(VcId vc, std::uint64_t target_lines)
{
    growTables(vc);
    vcs[vc].target = target_lines;
}

void
PartitionedBank::clearTargets()
{
    for (VcState &s : vcs)
        s.target = unmanagedTarget;
}

std::uint64_t
PartitionedBank::occupancy(VcId vc) const
{
    return vc < vcs.size() ? vcs[vc].occupancy : 0;
}

std::uint64_t
PartitionedBank::target(VcId vc) const
{
    return vc < vcs.size() ? vcs[vc].target : unmanagedTarget;
}

bool
PartitionedBank::walk(std::uint32_t num_sets,
                      const std::function<bool(const CacheLine &)>
                          &should_go,
                      std::vector<CacheLine> *out, std::uint64_t &removed)
{
    for (std::uint32_t i = 0; i < num_sets; i++) {
        if (walkCursor >= array.numSets()) {
            walkCursor = 0;
            return true;
        }
        for (std::uint32_t w = 0; w < array.numWays(); w++) {
            if (!array.valid(walkCursor, w))
                continue;
            const CacheLine line = array.entry(walkCursor, w);
            if (!should_go(line))
                continue;
            if (out != nullptr)
                out->push_back(line);
            noteEviction(line.vc);
            array.invalidate(walkCursor, w);
            removed++;
        }
        walkCursor++;
    }
    if (walkCursor >= array.numSets()) {
        walkCursor = 0;
        return true;
    }
    return false;
}

bool
PartitionedBank::walkInvalidate(std::uint32_t num_sets,
                                const std::function<bool(const CacheLine &)>
                                    &should_go,
                                std::uint64_t &invalidated)
{
    return walk(num_sets, should_go, nullptr, invalidated);
}

bool
PartitionedBank::walkCollect(std::uint32_t num_sets,
                             const std::function<bool(const CacheLine &)>
                                 &should_go,
                             std::vector<CacheLine> &out)
{
    std::uint64_t removed = 0;
    return walk(num_sets, should_go, &out, removed);
}

} // namespace cdcs
