/**
 * @file
 * Fig. 13: gmean weighted speedup with an under-committed 64-core
 * CMP: mixes of 1, 2, 4, 8, 16, 32 and 64 single-threaded apps.
 *
 * Paper shape: CDCS stays on top across the whole range; Jigsaw+C
 * collapses at low app counts (clustered capacity contention) and
 * Jigsaw+R is mediocre there because it over-allocates capacity that
 * only adds on-chip latency; latency-aware allocation matters most
 * when capacity is plentiful.
 */

#include "common/stats.hh"
#include "sim/study.hh"

namespace
{

using namespace cdcs;

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "fig13";
    spec.title = "Fig. 13 under-committed sweep";
    spec.paperRef = "1-64 apps";
    spec.category = "figure";
    spec.defaultMixes = 3;
    spec.lineup = {"snuca", "rnuca", "jigsaw-c", "jigsaw-r", "cdcs"};
    spec.run = [](StudyContext &ctx) {
        ctx.header();
        const std::vector<SchemeSpec> schemes = ctx.lineup();
        ctx.sink.printf("%-8s", "apps");
        for (const auto &s : schemes)
            ctx.sink.printf(" %10s", s.name.c_str());
        ctx.sink.printf("\n");

        for (int apps : {1, 2, 4, 8, 16, 32, 64}) {
            const SweepResult sweep = ctx.runner.sweep(
                ctx.cfg, schemes, ctx.mixes, [&](int m) {
                    return MixSpec::cpu(apps, 3000 + 100 * apps + m);
                });
            ctx.sink.sweep(std::string("fig13_undercommit_") +
                               std::to_string(apps) + "app",
                           sweep);
            ctx.sink.printf("%-8d", apps);
            for (std::size_t s = 0; s < schemes.size(); s++)
                ctx.sink.printf(" %10.3f", gmean(sweep.ws[s]));
            ctx.sink.printf("\n");
            ctx.sink.flush();
        }
    };
    return spec;
}());

} // anonymous namespace
