/**
 * @file
 * Shared machinery for utility monitors: a small set-associative,
 * tag-only LRU array fed by an address-sampled access stream, with an
 * optional per-way geometric survival filter.
 *
 * With survival factor gamma == 1 this is a classic UMON [Qureshi &
 * Patt, MICRO'06] in its address-sampled form; with gamma < 1 it is
 * the CDCS geometric monitor (GMON, Sec. IV-G): per-way limit
 * registers discard a growing fraction of tags as they age down the
 * LRU stack, so each way models gamma^-w times more capacity than
 * way 0.
 */

#ifndef CDCS_MONITOR_SAMPLED_MONITOR_HH
#define CDCS_MONITOR_SAMPLED_MONITOR_HH

#include <cstdint>
#include <vector>

#include "common/curve.hh"
#include "common/types.hh"

namespace cdcs
{

/**
 * Address-sampled LRU tag array with per-way geometric filtering and
 * per-way hit counters. Produces miss curves over the modeled
 * capacity range.
 */
class SampledMonitor
{
  public:
    /**
     * @param num_sets Monitor sets (power of two).
     * @param num_ways Monitor ways (LRU stack depth per set).
     * @param sample_shift Sample 1 in 2^sample_shift line addresses.
     * @param gamma Per-way survival factor (1.0 for UMON).
     * @param seed Decorrelates sampling/tag hashes between monitors.
     */
    SampledMonitor(std::uint32_t num_sets, std::uint32_t num_ways,
                   std::uint32_t sample_shift, double gamma,
                   std::uint64_t seed);

    /**
     * Observe one access. Cheap for unsampled addresses (one hash and
     * compare).
     */
    void access(LineAddr addr);

    /**
     * Miss curve over the modeled capacity range: x in cache lines,
     * y in absolute misses (scaled back up by the sampling and
     * per-way survival rates). Point (0, totalAccesses) is included.
     *
     * Ways with fewer raw hits than the noise floor contribute
     * nothing: deep GMON ways scale single tags by large gamma^-w
     * factors, so a stray hit would fabricate thousands of phantom
     * hits and destabilize the allocator.
     */
    Curve missCurve() const;

    /** Capacity in lines modeled by ways [0, w]. */
    double modeledCapacity(std::uint32_t w) const;

    /** Total capacity coverage in lines. */
    double
    coverage() const
    {
        return modeledCapacity(numWays - 1);
    }

    /** Accesses observed since the last clear (sampled or not). */
    std::uint64_t totalAccesses() const { return accessCount; }

    /** Reset hit/access counters, keeping the tag state warm. */
    void clearCounters();

    std::uint32_t sets() const { return numSets; }
    std::uint32_t ways() const { return numWays; }

    /**
     * Choose the survival factor gamma so that a monitor with the
     * given geometry covers `target_lines` of capacity. Solved by
     * bisection on the closed-form coverage expression.
     */
    static double gammaForCoverage(std::uint32_t num_sets,
                                   std::uint32_t num_ways,
                                   std::uint32_t sample_shift,
                                   std::uint64_t target_lines);

  private:
    /** 16-bit tag hash, also used against the limit registers. */
    std::uint16_t
    tagOf(LineAddr addr) const
    {
        return static_cast<std::uint16_t>(mix64(addr ^ tagSeed) & 0xFFFF);
    }

    std::uint32_t numSets;
    std::uint32_t numWays;
    std::uint32_t sampleShift;
    double gammaFactor;
    std::uint64_t sampleSeed;
    std::uint64_t tagSeed;
    std::uint64_t indexSeed;

    /// limit[w]: a tag survives the move from way w-1 into way w if
    /// tag < limit[w]. limit[0] is unused (insertions always land).
    std::vector<std::uint16_t> limits;
    /// tags[set * numWays + way]; 0xFFFF plays "empty" (harmless: it
    /// is also a legal tag value; collisions only add noise).
    std::vector<std::uint16_t> tags;
    std::vector<bool> validBits;
    std::vector<std::uint64_t> hitCounters;
    std::uint64_t accessCount = 0;
    std::uint64_t sampledCount = 0;
    static constexpr std::uint64_t noiseFloor = 2;
};

} // namespace cdcs

#endif // CDCS_MONITOR_SAMPLED_MONITOR_HH
