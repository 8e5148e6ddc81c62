/**
 * @file
 * The benchmark's workloads: one simulated-platform configuration, a
 * scheme lineup and a seeded set of workload mixes each. Every
 * (scheme, mix) pair is one job of the batch sweep. The seed is the
 * benchmark's argument; the simulator only ever sees the configs and
 * mixes derived from it. Why each workload exists is in README.md.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace perfbench
{

struct Workload
{
    std::string name;
    cdcs::SystemConfig cfg;
    std::vector<cdcs::SchemeSpec> schemes;
    /// Mixes of one sweep; mixOf also serves later indices.
    int mixes = 0;
    std::function<cdcs::MixSpec(int)> mixOf;
    /// Threads of every mix (all mixes of a workload have as many).
    int threads = 0;
    /// Paper reference for the gmean weighted speedups, or empty.
    std::string paperWs;

    cdcs::MixSpec mix(int m) const { return mixOf(m); }

    /** Jobs of one sweep (schemes x mixes). */
    int jobs() const { return static_cast<int>(schemes.size()) * mixes; }

    /** LLC accesses one mix issues over the whole run. */
    std::uint64_t
    accessesPerMix() const
    {
        return static_cast<std::uint64_t>(threads) *
            cfg.accessesPerThreadEpoch *
            static_cast<std::uint64_t>(cfg.epochs);
    }

    /** LLC accesses one mix issues after warmup. */
    std::uint64_t
    measuredAccessesPerMix() const
    {
        return static_cast<std::uint64_t>(threads) *
            cfg.accessesPerThreadEpoch *
            static_cast<std::uint64_t>(cfg.epochs - cfg.warmupEpochs);
    }
};

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload `name` for `seed`. `quick` shrinks epochs and mixes
 * for the benchmark's own tests (never for measurements). Returns
 * false for an unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  bool quick, Workload *out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
