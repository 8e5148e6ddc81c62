#include "monitor/sampled_monitor.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace cdcs
{

SampledMonitor::SampledMonitor(std::uint32_t num_sets,
                               std::uint32_t num_ways,
                               std::uint32_t sample_shift, double gamma,
                               std::uint64_t seed)
    : numSets(num_sets), numWays(num_ways), sampleShift(sample_shift),
      gammaFactor(gamma),
      sampleSeed(mix64(seed ^ 0x5A11)), tagSeed(mix64(seed ^ 0x7A6)),
      indexSeed(mix64(seed ^ 0x1DE))
{
    cdcs_assert(numSets > 0 && (numSets & (numSets - 1)) == 0,
                "monitor sets must be a power of two");
    cdcs_assert(numWays > 0, "monitor needs at least one way");
    cdcs_assert(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");

    limits.resize(numWays);
    double survival = 1.0;
    for (std::uint32_t w = 0; w < numWays; w++) {
        limits[w] = static_cast<std::uint16_t>(
            std::min(65535.0, std::floor(65536.0 * survival)));
        survival *= gammaFactor;
    }
    tags.assign(static_cast<std::size_t>(numSets) * numWays, 0);
    validBits.assign(tags.size(), false);
    hitCounters.assign(numWays, 0);
}

void
SampledMonitor::access(LineAddr addr)
{
    accessCount++;
    if (sampleShift > 0 &&
        (mix64(addr ^ sampleSeed) & ((1ull << sampleShift) - 1)) != 0) {
        return;
    }
    sampledCount++;

    const std::uint16_t tag = tagOf(addr);
    const std::uint32_t set = static_cast<std::uint32_t>(
        mix64(addr ^ indexSeed) & (numSets - 1));
    std::uint16_t *set_tags = &tags[static_cast<std::size_t>(set) * numWays];
    const std::size_t base = static_cast<std::size_t>(set) * numWays;

    // Probe: LRU position == way index.
    std::uint32_t hit_way = numWays;
    for (std::uint32_t w = 0; w < numWays; w++) {
        if (validBits[base + w] && set_tags[w] == tag) {
            hit_way = w;
            break;
        }
    }
    if (hit_way < numWays) {
        hitCounters[hit_way]++;
        validBits[base + hit_way] = false;
    }

    // Chain-insert the tag at way 0; each displaced tag drops one way
    // deeper if its hash passes the destination way's limit register,
    // otherwise it is discarded and the shift terminates (Fig. 9).
    std::uint16_t carried = tag;
    for (std::uint32_t w = 0; w < numWays; w++) {
        if (!validBits[base + w]) {
            set_tags[w] = carried;
            validBits[base + w] = true;
            return;
        }
        std::swap(carried, set_tags[w]);
        if (w + 1 >= numWays)
            return; // Displaced out of the last way: evicted.
        if (carried >= limits[w + 1])
            return; // Filtered out; shift terminates.
    }
}

double
SampledMonitor::modeledCapacity(std::uint32_t w) const
{
    // Way i alone models numSets * 2^shift / gamma^i lines; return the
    // cumulative capacity through way w.
    const double base = static_cast<double>(numSets) *
        std::pow(2.0, static_cast<double>(sampleShift));
    double total = 0.0;
    double inv_gamma = 1.0;
    for (std::uint32_t i = 0; i <= w && i < numWays; i++) {
        total += base * inv_gamma;
        inv_gamma /= gammaFactor;
    }
    return total;
}

Curve
SampledMonitor::missCurve() const
{
    Curve curve;
    const double total = static_cast<double>(accessCount);
    curve.addPoint(0.0, total);

    const double sample_scale =
        std::pow(2.0, static_cast<double>(sampleShift));
    double hits_so_far = 0.0;
    double inv_gamma = 1.0;
    double capacity = 0.0;
    const double base = static_cast<double>(numSets) * sample_scale;
    double prev_y = total;
    for (std::uint32_t w = 0; w < numWays; w++) {
        if (hitCounters[w] >= noiseFloor) {
            hits_so_far += static_cast<double>(hitCounters[w]) *
                sample_scale * inv_gamma;
        }
        capacity += base * inv_gamma;
        inv_gamma /= gammaFactor;
        // Clamp for sampling noise: the curve must stay non-negative
        // and non-increasing.
        double y = std::max(0.0, total - hits_so_far);
        y = std::min(y, prev_y);
        prev_y = y;
        curve.addPoint(capacity, y);
    }
    return curve;
}

void
SampledMonitor::clearCounters()
{
    std::fill(hitCounters.begin(), hitCounters.end(), 0);
    accessCount = 0;
    sampledCount = 0;
}

double
SampledMonitor::gammaForCoverage(std::uint32_t num_sets,
                                 std::uint32_t num_ways,
                                 std::uint32_t sample_shift,
                                 std::uint64_t target_lines)
{
    const double base = static_cast<double>(num_sets) *
        std::pow(2.0, static_cast<double>(sample_shift));
    const double target = static_cast<double>(target_lines);
    auto coverage = [&](double gamma) {
        double total = 0.0;
        double inv_gamma = 1.0;
        for (std::uint32_t i = 0; i < num_ways; i++) {
            total += base * inv_gamma;
            inv_gamma /= gamma;
        }
        return total;
    };
    if (coverage(1.0) >= target)
        return 1.0;
    double lo = 0.5, hi = 1.0;
    for (int iter = 0; iter < 60; iter++) {
        const double mid = 0.5 * (lo + hi);
        if (coverage(mid) >= target)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace cdcs
