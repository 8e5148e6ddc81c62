#include "cache/cache_array.hh"

#include <cstdint>

namespace cdcs
{

namespace
{

constexpr std::size_t blockAlign = 64;
constexpr std::size_t wordsPerAlign = blockAlign / sizeof(std::uint64_t);

} // anonymous namespace

CacheArray::CacheArray(std::uint32_t num_sets, std::uint32_t num_ways,
                       std::uint64_t hash_seed)
    : sets(num_sets), ways(num_ways), seed(hash_seed)
{
    cdcs_assert(sets > 0 && (sets & (sets - 1)) == 0,
                "set count must be a power of two");
    cdcs_assert(ways > 0 && ways <= maxWays,
                "associativity must be in 1..maxWays");
    vcOffset = ways * static_cast<std::uint32_t>(sizeof(std::uint64_t));
    rankOffset = vcOffset + ways * static_cast<std::uint32_t>(sizeof(VcId));
    sharerWord = (rankOffset + ways + 7) / 8;
    strideWords = (sharerWord + ways + 7) / 8 * 8;

    // Hand-aligned: a plain vector plus up to 56 B of slack. An
    // over-aligned operator new[] measured more than twice the peak
    // RSS on short jobs (ARCHITECTURE.md, "The cache layer").
    storage.assign(std::size_t{sets} * strideWords + wordsPerAlign - 1, 0);
    // lint:allow(ptr-order): the address only picks the padding
    const auto start = reinterpret_cast<std::uintptr_t>(storage.data());
    firstWord = (blockAlign - start % blockAlign) % blockAlign /
        sizeof(std::uint64_t);

    for (std::uint32_t s = 0; s < sets; s++) {
        unsigned char *ranks = bytes(s) + rankOffset;
        for (std::uint32_t w = 0; w < ways; w++)
            ranks[w] = static_cast<unsigned char>(w);
    }
    invalidateAll();
}

void
CacheArray::invalidateAll()
{
    for (std::uint32_t s = 0; s < sets; s++) {
        for (std::uint32_t w = 0; w < ways; w++)
            invalidate(s, w);
    }
}

std::uint64_t
CacheArray::numValid() const
{
    std::uint64_t count = 0;
    for (std::uint32_t s = 0; s < sets; s++) {
        for (std::uint32_t w = 0; w < ways; w++)
            count += valid(s, w) ? 1 : 0;
    }
    return count;
}

} // namespace cdcs
