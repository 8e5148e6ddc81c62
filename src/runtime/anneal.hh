/**
 * @file
 * Simulated-annealing comparator (Sec. VI-C): expensive stochastic
 * search over thread placements, standing in for the paper's Gurobi
 * ILP formulation (see DESIGN.md). The paper's point — the cheap CDCS
 * heuristics come within ~1% of it — is what the bench harness
 * checks.
 */

#ifndef CDCS_RUNTIME_ANNEAL_HH
#define CDCS_RUNTIME_ANNEAL_HH

#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "mesh/mesh.hh"
#include "runtime/cdcs_runtime.hh"

namespace cdcs
{

/**
 * Anneal a thread placement against the Eq. 2 on-chip cost, keeping
 * the data placement fixed.
 *
 * @param alloc alloc[d][tile] lines.
 * @param sizes Per-VC total lines.
 * @param access access[t][d] accesses.
 * @param start Initial assignment.
 * @param mesh Topology.
 * @param iterations Swap proposals (the paper uses 5000).
 * @param rng RNG.
 * @return Improved thread placement.
 */
std::vector<TileId>
annealThreads(const std::vector<std::vector<double>> &alloc,
              const std::vector<double> &sizes,
              const std::vector<std::vector<double>> &access,
              std::vector<TileId> start, const Mesh &mesh,
              int iterations, Rng &rng);

/**
 * A CDCS runtime whose thread placement is post-processed by
 * simulated annealing (the Sec. VI-C "SA thread placer").
 */
class AnnealingRuntime : public CdcsRuntime
{
  public:
    AnnealingRuntime(CdcsOptions opts, int iterations,
                     std::uint64_t seed)
        : CdcsRuntime(opts), saIterations(iterations), rng(seed)
    {
    }

    RuntimeOutput reconfigure(const RuntimeInput &input) override;

  private:
    int saIterations;
    Rng rng;
};

} // namespace cdcs

#endif // CDCS_RUNTIME_ANNEAL_HH
