/**
 * @file
 * Experiment harness helpers shared by the bench binaries: mix
 * construction, per-scheme runs with identical workload streams and
 * weighted-speedup computation against the S-NUCA baseline. Parallel
 * scheme x mix sweeps live in sim/experiment_runner.hh.
 */

#ifndef CDCS_SIM_EXPERIMENT_HH
#define CDCS_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace cdcs
{

/** How to build a workload mix. */
struct MixSpec
{
    enum class Kind
    {
        Cpu,    ///< `count` random SPEC CPU2006-like apps.
        Omp,    ///< `count` random 8-thread SPEC OMP2012-like apps.
        Named   ///< Explicit profile name list.
    };

    Kind kind = Kind::Cpu;
    int count = 64;
    std::vector<std::string> names;
    std::uint64_t seed = 1;

    static MixSpec
    cpu(int count, std::uint64_t seed)
    {
        MixSpec spec;
        spec.kind = Kind::Cpu;
        spec.count = count;
        spec.seed = seed;
        return spec;
    }

    static MixSpec
    omp(int count, std::uint64_t seed)
    {
        MixSpec spec;
        spec.kind = Kind::Omp;
        spec.count = count;
        spec.seed = seed;
        return spec;
    }

    static MixSpec
    named(std::vector<std::string> names, std::uint64_t seed)
    {
        MixSpec spec;
        spec.kind = Kind::Named;
        spec.names = std::move(names);
        spec.seed = seed;
        return spec;
    }
};

/** Instantiate the mix a MixSpec describes. */
WorkloadMix buildMix(const MixSpec &spec);

/** Run one scheme on one mix. */
RunResult runScheme(const SystemConfig &cfg, const SchemeSpec &scheme,
                    const MixSpec &mix);

/**
 * Weighted speedup of `run` over `baseline` (same mix): the mean over
 * processes of the per-process throughput ratio [Snavely & Tullsen].
 */
double weightedSpeedup(const RunResult &run, const RunResult &baseline);

} // namespace cdcs

#endif // CDCS_SIM_EXPERIMENT_HH
