/**
 * @file
 * Ablation of the NUMA-aware memory-placement extension (the future
 * work Sec. III defers; cf. the Fig. 11d remark that NUMA-aware
 * techniques would further reduce the dominant LLC-to-memory
 * traffic): first-touch page-to-controller affinity vs. the paper's
 * page-interleaved baseline, under R-NUCA and CDCS.
 */

#include "sim/study.hh"

namespace
{

using namespace cdcs;

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "ablation_numa";
    spec.title = "NUMA-aware memory placement ablation";
    spec.paperRef = "Sec. III future work / Fig. 11d remark";
    spec.category = "ablation";
    spec.defaultMixes = 1;
    spec.lineup = {"rnuca", "cdcs"};
    spec.run = [](StudyContext &ctx) {
        const SystemConfig &base = ctx.cfg;
        SystemConfig numa = base;
        numa.memPlacement = "first-touch";
        ctx.header(1);

        const MixSpec mix = MixSpec::cpu(48, 9950);
        const std::vector<const char *> tags = {
            "R-NUCA interleaved", "R-NUCA numa-aware",
            "CDCS interleaved", "CDCS numa-aware"};
        const std::vector<ExperimentRunner::Job> jobs = {
            {base, schemeByName("rnuca"), mix},
            {numa, schemeByName("rnuca"), mix},
            {base, schemeByName("cdcs"), mix},
            {numa, schemeByName("cdcs"), mix},
        };
        const auto results = ctx.runner.runAll(jobs);

        ctx.sink.printf("%-24s %14s %16s %12s\n", "config",
                        "LLCMem fh/instr", "offchip/instr",
                        "nJ/instr");
        for (std::size_t i = 0; i < jobs.size(); i++) {
            const RunResult &r = results[i];
            ctx.sink.printf(
                "%-24s %14.3f %16.3f %12.2f\n", tags[i],
                r.flitHopsPerInstr(TrafficClass::LLCToMem),
                r.offChipLatPerInstr(),
                r.totalInstrs > 0.0
                    ? 1e9 * r.energy.total() / r.totalInstrs
                    : 0.0);
        }
    };
    return spec;
}());

} // anonymous namespace
