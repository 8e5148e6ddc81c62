#include "runtime/anneal.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "runtime/refined_placer.hh"

namespace cdcs
{

std::vector<TileId>
annealThreads(const std::vector<std::vector<double>> &alloc,
              const std::vector<double> &sizes,
              const std::vector<std::vector<double>> &access,
              std::vector<TileId> start, const Mesh &mesh,
              int iterations, Rng &rng)
{
    const std::size_t num_threads = start.size();
    if (num_threads < 2 || iterations <= 0)
        return start;

    // Per-thread cost against a fixed data placement decomposes, so
    // evaluate proposals incrementally: cost(t, core) = sum over VCs
    // of alpha_{t,b} * D(core, b) (Eq. 2).
    const int num_tiles = mesh.numTiles();
    auto thread_cost = [&](std::size_t t, TileId core) {
        double cost = 0.0;
        for (std::size_t d = 0; d < alloc.size(); d++) {
            const double at = access[t][d];
            if (at <= 0.0 || sizes[d] <= 0.0)
                continue;
            double placed = 0.0;
            for (double a : alloc[d])
                placed += a;
            if (placed <= 0.0)
                continue;
            for (TileId b = 0; b < num_tiles; b++) {
                if (alloc[d][b] > 0.0) {
                    cost += at * (alloc[d][b] / placed) *
                        mesh.hops(core, b);
                }
            }
        }
        return cost;
    };

    // Occupancy map: thread on each core (or none).
    std::vector<int> coreThread(num_tiles, -1);
    for (std::size_t t = 0; t < num_threads; t++)
        coreThread[start[t]] = static_cast<int>(t);

    double temp = 0.0;
    {
        // Initial temperature: a few percent of the mean thread cost.
        double total = 0.0;
        for (std::size_t t = 0; t < num_threads; t++)
            total += thread_cost(t, start[t]);
        temp = 0.05 * total / static_cast<double>(num_threads) + 1e-9;
    }
    const double cooling =
        std::pow(1e-3, 1.0 / static_cast<double>(iterations));

    for (int it = 0; it < iterations; it++) {
        const auto t = static_cast<std::size_t>(rng.below(num_threads));
        const auto target = static_cast<TileId>(rng.below(num_tiles));
        const TileId from = start[t];
        if (target == from)
            continue;
        const int other = coreThread[target];
        double delta = thread_cost(t, target) - thread_cost(t, from);
        if (other >= 0) {
            delta += thread_cost(other, from) -
                thread_cost(other, target);
        }
        if (delta < 0.0 || rng.uniform() < std::exp(-delta / temp)) {
            start[t] = target;
            coreThread[from] = other;
            coreThread[target] = static_cast<int>(t);
            if (other >= 0)
                start[other] = from;
        }
        temp *= cooling;
    }
    return start;
}

RuntimeOutput
AnnealingRuntime::reconfigure(const RuntimeInput &input)
{
    RuntimeOutput out = CdcsRuntime::reconfigure(input);

    // Post-process the thread placement with SA against the produced
    // data placement, then re-run refined placement for the (possibly)
    // new thread locations.
    std::vector<double> sizes(out.alloc.size(), 0.0);
    for (std::size_t d = 0; d < out.alloc.size(); d++) {
        for (double a : out.alloc[d])
            sizes[d] += a;
    }

    // Collapse banks back to tiles for the cost model.
    const int bpt = input.banksPerTile;
    std::vector<std::vector<double>> tile_alloc(
        out.alloc.size(),
        std::vector<double>(input.mesh->numTiles(), 0.0));
    for (std::size_t d = 0; d < out.alloc.size(); d++) {
        for (std::size_t b = 0; b < out.alloc[d].size(); b++)
            tile_alloc[d][b / bpt] += out.alloc[d][b];
    }

    out.threadCore = annealThreads(tile_alloc, sizes, input.access,
                                   out.threadCore, *input.mesh,
                                   saIterations, rng);

    RefinedPlacerConfig place_cfg;
    place_cfg.granule = std::max<double>(options.placeGranule,
                                         input.allocGranule);
    place_cfg.trades = options.refineTrades;
    const double tile_capacity =
        static_cast<double>(input.bankLines) * input.banksPerTile;
    const auto refined =
        refinePlace(sizes, input.access, out.threadCore, *input.mesh,
                    tile_capacity, place_cfg, input.costModel);
    out.alloc = tilesToBanks(refined, input.banksPerTile,
                             input.bankLines);
    return out;
}

} // namespace cdcs
