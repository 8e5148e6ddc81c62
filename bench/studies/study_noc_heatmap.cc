/**
 * @file
 * NoC link-load heatmap: per-link traffic of one 64-app mix under
 * the contention-aware mesh, rendered per scheme like the Fig. 1 /
 * 16b chip maps and exported as JSON for tools/plot_noc_heatmap.py.
 *
 * Expected shape: S-NUCA spreads every VC across the whole chip, so
 * load concentrates on the mesh's center links; CDCS's compact VC
 * placement keeps traffic local and the per-link peak far lower.
 */

#include "sim/study.hh"
#include "noc_studies.hh"

namespace
{

using namespace cdcs;

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "noc_heatmap";
    spec.title = "NoC link-load heatmap";
    spec.paperRef = "per-link flits per scheme, contention mesh";
    spec.category = "ablation";
    spec.defaultMixes = 1;
    spec.lineup = {"snuca", "rnuca", "cdcs"};
    spec.configure = [](SystemConfig &cfg) {
        cfg.nocModel = "contention";
    };
    spec.run = [](StudyContext &ctx) {
        ctx.header(1);
        const MixSpec mix = MixSpec::cpu(64, nocMixSeedBase);
        for (const std::string &name : ctx.spec.lineup) {
            const SchemeSpec scheme = schemeByName(name);
            const RunResult run =
                ctx.runner.run(ctx.cfg, scheme, mix);
            const NocHeatmap map = makeNocHeatmap(
                ctx.cfg.meshWidth, ctx.cfg.meshHeight, run);
            ctx.sink.printf("-- %s --\n", scheme.name.c_str());
            writeNocHeatmap(ctx.sink, map);
            ctx.sink.artifact("noc_heatmap_" + name, "nocheatmap",
                              map.toJson());
            ctx.sink.printf("\n");
        }
    };
    return spec;
}());

} // anonymous namespace
