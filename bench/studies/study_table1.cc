/**
 * @file
 * Table 1 + Fig. 1 (Sec. II-B case study): a 36-tile CMP running
 * omnetpp x6, milc x14 and two 8-thread ilbdc instances under R-NUCA,
 * Jigsaw+Clustered, Jigsaw+Random and CDCS. Reports per-app and
 * weighted speedups over S-NUCA and renders the CDCS thread/data
 * placement map.
 *
 * Paper shape to reproduce: omnetpp gains hugely once its 2.5 MB
 * working set fits (Jigsaw/CDCS), random beats clustered for omnetpp
 * but hurts ilbdc, and CDCS gets the best of both (Table 1's WS
 * column: R-NUCA 1.08 < Jigsaw+C 1.48 ~ Jigsaw+R 1.47 < CDCS 1.56).
 */

#include "common/stats.hh"
#include "sim/study.hh"
#include "sim/system.hh"

namespace
{

using namespace cdcs;

MixSpec
caseStudyMix()
{
    std::vector<std::string> names;
    for (int i = 0; i < 6; i++)
        names.push_back("omnetpp");
    for (int i = 0; i < 14; i++)
        names.push_back("milc");
    names.push_back("ilbdc");
    names.push_back("ilbdc");
    return MixSpec::named(names, 1000);
}

/** Mean throughput ratio over the processes of one app. */
double
appSpeedup(const RunResult &run, const RunResult &base, int first,
           int count)
{
    std::vector<double> ratios;
    for (int p = first; p < first + count; p++)
        ratios.push_back(run.procThroughput[p] /
                         base.procThroughput[p]);
    return mean(ratios);
}

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "table1";
    spec.title = "Table 1 / Fig. 1 case study";
    spec.paperRef = "omnetpp x6 + milc x14 + ilbdc x2(8t), 36 tiles";
    spec.category = "table";
    spec.defaultMixes = 1;
    spec.lineup = {"snuca", "rnuca", "jigsaw-c", "jigsaw-r", "cdcs"};
    spec.configure = [](SystemConfig &cfg) {
        cfg.meshWidth = 6;
        cfg.meshHeight = 6;
    };
    spec.run = [](StudyContext &ctx) {
        ctx.header(1);
        const MixSpec mix = caseStudyMix();
        const std::vector<SchemeSpec> schemes = ctx.lineup();
        const auto results =
            ctx.runner.runSchemes(ctx.cfg, schemes, mix);
        const RunResult &base = results[0];

        ctx.sink.printf("%-12s %8s %8s %8s %8s\n", "scheme", "omnet",
                        "ilbdc", "milc", "WS");
        for (std::size_t s = 1; s < schemes.size(); s++) {
            const RunResult &r = results[s];
            ctx.sink.printf("%-12s %8.2f %8.2f %8.2f %8.2f\n",
                            schemes[s].name.c_str(),
                            appSpeedup(r, base, 0, 6),
                            appSpeedup(r, base, 20, 2),
                            appSpeedup(r, base, 6, 14),
                            weightedSpeedup(r, base));
        }

        ctx.sink.printf("\nFig. 1d equivalent: CDCS thread and data "
                        "placement\n");
        System cdcs_system(ctx.cfg, schemeByName("cdcs"),
                           buildMix(mix));
        cdcs_system.run();
        const ChipMap map = captureChipMap(cdcs_system);
        writeChipMap(ctx.sink, map);
        ctx.sink.artifact("table1_chipmap", "chipmap", map.toJson());
    };
    return spec;
}());

} // anonymous namespace
