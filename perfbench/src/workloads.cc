#include "workloads.hh"

#include <utility>

#include "common/rng.hh"
#include "sim/scheme_registry.hh"
#include "workload/app_profile.hh"

namespace perfbench
{

using namespace cdcs;

namespace
{

/**
 * Mix m of a balanced OMP design: every round of mixes pairs up a
 * seeded shuffle of all SPEC OMP2012-like profiles, so each round
 * holds every app exactly once. The seed changes which apps share a
 * chip and every stream, not the sweep's app composition: random
 * pairs of eight very different apps would make the sweep's cost
 * swing with the seed far more than with the code.
 */
MixSpec
balancedOmpPair(std::uint64_t seed, int m)
{
    const auto &lib = specOmp2012();
    const int pairs = static_cast<int>(lib.size()) / 2;
    const int round = m / pairs;
    const int slot = m % pairs;
    std::vector<std::string> names;
    for (const AppProfile &app : lib)
        names.push_back(app.name);
    Rng rng(mix64(seed ^ (0x0A11ull + static_cast<std::uint64_t>(round))));
    for (std::size_t i = names.size() - 1; i > 0; i--)
        std::swap(names[i], names[rng.below(i + 1)]);
    return MixSpec::named({names[2 * slot], names[2 * slot + 1]},
                          1000 * seed + 200 + static_cast<std::uint64_t>(m));
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig11_zero_load", "contention_tiered", "omp16_shared"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, bool quick,
             Workload *out)
{
    Workload w;
    w.name = name;
    // Caches start empty; the warmup epoch is simulated and timed.
    w.cfg.epochs = 3;
    w.cfg.warmupEpochs = 1;
    // Every stream the simulator draws derives from the benchmark
    // seed: the platform seed directly, the mixes through their own
    // seed range per workload.
    w.cfg.seed = mix64(seed ^ 0xBE7C5EEDull);
    const std::uint64_t cpu_base = 1000 * seed;

    if (name == "fig11_zero_load") {
        // The paper's headline experiment at its defaults.
        w.cfg.accessesPerThreadEpoch = 10000;
        w.mixes = 4;
        w.mixOf = [cpu_base](int m) {
            return MixSpec::cpu(64, cpu_base + static_cast<std::uint64_t>(m));
        };
        w.schemes = schemesByName(
            {"snuca", "rnuca", "jigsaw-c", "jigsaw-r", "cdcs"});
        w.paperWs = "CDCS 1.46, Jigsaw+R 1.38, Jigsaw+C 1.34, "
                    "R-NUCA 1.18 (paper Fig. 11, gmean WS over S-NUCA)";
    } else if (name == "contention_tiered") {
        // Per-link NoC contention, contention-aware page placement,
        // a hotness-tiered far pool and the tiering study's page-hot
        // Zipf overlay: the configuration where net, mem and the
        // traffic sampler do real work.
        w.cfg.accessesPerThreadEpoch = 10000;
        w.cfg.nocModel = "contention";
        w.cfg.nocInjScale = 4.0;
        w.cfg.memPlacement = "contention";
        w.cfg.farMemRatio = 0.5;
        w.cfg.memTiering = "hotness";
        w.cfg.farMemLatency = 600;
        w.cfg.skewAlpha = 1.25;
        w.cfg.skewFraction = 0.8;
        w.cfg.skewLines = std::uint64_t{1} << 21;
        w.cfg.skewHotLines = std::uint64_t{1} << 18;
        w.cfg.skewPageHot = true;
        w.mixes = 4;
        w.mixOf = [cpu_base](int m) {
            return MixSpec::cpu(
                64, cpu_base + 100 + static_cast<std::uint64_t>(m));
        };
        w.schemes = schemesByName({"snuca", "jigsaw-r", "cdcs"});
    } else if (name == "omp16_shared") {
        // Two 8-thread OMP apps with shared data on a 4x4 mesh.
        w.cfg.meshWidth = 4;
        w.cfg.meshHeight = 4;
        w.cfg.accessesPerThreadEpoch = 30000;
        w.mixes = 8;
        w.mixOf = [seed](int m) { return balancedOmpPair(seed, m); };
        w.schemes = schemesByName({"snuca", "rnuca", "jigsaw-r", "cdcs"});
    } else {
        return false;
    }
    if (quick) {
        w.cfg.accessesPerThreadEpoch = 1000;
        w.mixes = 2;
    }
    w.threads = buildMix(w.mix(0)).numThreads();
    *out = std::move(w);
    return true;
}

} // namespace perfbench
