/**
 * @file
 * Fig. 12: factor analysis of the CDCS techniques applied to Jigsaw+R
 * individually — latency-aware allocation (+L), thread placement
 * (+T), refined data placement (+D), and all three (+LTD == CDCS) —
 * on 64-app and 4-app mixes.
 *
 * Paper shape: with 64 apps capacity is scarce, so +T and +D carry
 * the gains and +L adds little; with 4 apps capacity is plentiful and
 * +L provides most of the speedup.
 */

#include "sim/study.hh"

namespace
{

using namespace cdcs;

void
runFactor(StudyContext &ctx, int apps)
{
    const SweepResult sweep = ctx.runner.sweep(
        ctx.cfg, ctx.lineup(), ctx.mixes,
        [&](int m) { return MixSpec::cpu(apps, 2000 + m); });
    ctx.sink.sweep(std::string("fig12_factor_") +
                       std::to_string(apps) + "app",
                   sweep);
    ctx.sink.printf("-- %d-app mixes --\n", apps);
    writeWsSummary(ctx.sink, sweep);
    ctx.sink.printf("\n");
}

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "fig12";
    spec.title = "Fig. 12 factor analysis";
    spec.paperRef = "+L/+T/+D on Jigsaw+R";
    spec.category = "figure";
    spec.defaultMixes = 4;
    spec.lineup = {"snuca",    "jigsaw-r", "jigsaw+l",
                   "jigsaw+t", "jigsaw+d", "jigsaw+ltd"};
    spec.run = [](StudyContext &ctx) {
        ctx.header();
        runFactor(ctx, 64);
        runFactor(ctx, 4);
    };
    return spec;
}());

} // anonymous namespace
