/**
 * @file
 * Fig. 16: mixes of four 8-thread SPEC OMP2012-like apps (32 threads
 * on 64 cores) — weighted speedups, plus the Fig. 16b case study:
 * CDCS spreads the private-heavy mgrid across the chip while tightly
 * clustering the shared-heavy md/ilbdc/nab around their shared VCs.
 */

#include "sim/study.hh"
#include "sim/system.hh"

namespace
{

using namespace cdcs;

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "fig16";
    spec.title = "Fig. 16";
    spec.paperRef = "4 x 8-thread OMP mixes (32/64 cores)";
    spec.category = "figure";
    spec.defaultMixes = 4;
    spec.lineup = {"snuca", "rnuca", "jigsaw-c", "jigsaw-r", "cdcs"};
    spec.run = [](StudyContext &ctx) {
        ctx.header();
        const SweepResult sweep = ctx.runner.sweep(
            ctx.cfg, ctx.lineup(), ctx.mixes,
            [&](int m) { return MixSpec::omp(4, 6000 + m); });
        ctx.sink.sweep("fig16_undercommit_mt", sweep);

        ctx.sink.printf(
            "-- Fig. 16a: weighted speedup inverse CDF --\n");
        writeInverseCdf(ctx.sink, sweep);
        ctx.sink.printf("\n");
        writeWsSummary(ctx.sink, sweep);

        ctx.sink.printf(
            "\n-- Fig. 16b case study: mgrid (private-heavy) + "
            "md/ilbdc/nab (shared-heavy) under CDCS --\n");
        const MixSpec case_mix =
            MixSpec::named({"mgrid", "md", "ilbdc", "nab"}, 6100);
        System system(ctx.cfg, schemeByName("cdcs"),
                      buildMix(case_mix));
        system.run();
        const ChipMap map = captureChipMap(system);
        writeChipMap(ctx.sink, map);
        ctx.sink.artifact("fig16b_chipmap", "chipmap", map.toJson());
    };
    return spec;
}());

} // anonymous namespace
