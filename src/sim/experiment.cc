#include "sim/experiment.hh"

#include "common/log.hh"
#include "common/stats.hh"

namespace cdcs
{

WorkloadMix
buildMix(const MixSpec &spec)
{
    switch (spec.kind) {
      case MixSpec::Kind::Cpu:
        return WorkloadMix::randomCpuMix(spec.count, spec.seed);
      case MixSpec::Kind::Omp:
        return WorkloadMix::randomOmpMix(spec.count, spec.seed);
      case MixSpec::Kind::Named:
        return WorkloadMix::fromNames(spec.names, spec.seed);
    }
    panic("unknown mix kind");
}

RunResult
runScheme(const SystemConfig &cfg, const SchemeSpec &scheme,
          const MixSpec &mix)
{
    System system(cfg, scheme, buildMix(mix));
    return system.run();
}

double
weightedSpeedup(const RunResult &run, const RunResult &baseline)
{
    cdcs_assert(run.procThroughput.size() ==
                    baseline.procThroughput.size(),
                "weighted speedup needs matching mixes");
    std::vector<double> ratios;
    for (std::size_t p = 0; p < run.procThroughput.size(); p++) {
        if (baseline.procThroughput[p] > 0.0) {
            ratios.push_back(run.procThroughput[p] /
                             baseline.procThroughput[p]);
        }
    }
    // Mid-run departures can zero every process's baseline
    // throughput (an all-departed mix under heavy churn). Such a
    // cell is unmeasurable, not broken: score it a neutral 1.0 so
    // the study-level gmean over mixes stays finite.
    if (ratios.empty())
        return 1.0;
    return mean(ratios);
}

} // namespace cdcs
