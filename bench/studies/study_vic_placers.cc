/**
 * @file
 * Sec. VI-C, "Alternative thread and data placement schemes": the
 * CDCS heuristics vs. expensive comparators — a simulated-annealing
 * thread placer (standing in for the paper's Gurobi ILP, see
 * DESIGN.md) and recursive-bisection co-placement (standing in for
 * METIS graph partitioning).
 *
 * Paper shape: SA gains ~0.6% and ILP data placement ~0.5% over the
 * CDCS heuristics; graph partitioning does not outperform CDCS (it
 * splits the chip center instead of clustering around it). The
 * comparators also cost orders of magnitude more runtime.
 *
 * The study prints weighted speedups only, no runtime table. The
 * per-invocation step times in RunResult::avgTimes are host wall
 * clock, which the result cache and store replay like simulated
 * results, so a warm rerun would print a stale measurement as a fresh
 * one. They also miss the comparators' own searches: CDCS+SA times
 * only the CDCS steps it starts from, not its annealing, and the
 * bisection runtime fills no times at all. table3 is the one study
 * that measures runtime.
 */

#include "sim/study.hh"

namespace
{

using namespace cdcs;

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "vic_placers";
    spec.title = "Sec. VI-C placers";
    spec.paperRef = "CDCS vs SA vs bisection";
    spec.category = "ablation";
    spec.defaultMixes = 2;
    spec.lineup = {"snuca", "cdcs"};
    spec.run = [](StudyContext &ctx) {
        ctx.header();

        std::vector<SchemeSpec> schemes = ctx.lineup();
        {
            SchemeSpec sa = schemeByName("cdcs");
            sa.placer = PlacerKind::Annealed;
            sa.saIterations =
                static_cast<int>(ctx.knob("saIters", 5000));
            sa.name = "CDCS+SA";
            schemes.push_back(sa);
        }
        {
            SchemeSpec bisect = schemeByName("cdcs");
            bisect.placer = PlacerKind::Bisection;
            bisect.name = "Bisection";
            schemes.push_back(bisect);
        }

        const SweepResult sweep = ctx.runner.sweep(
            ctx.cfg, schemes, ctx.mixes,
            [&](int m) { return MixSpec::cpu(32, 9500 + m); });
        ctx.sink.sweep("vic_placers", sweep);
        writeWsSummary(ctx.sink, sweep);
    };
    return spec;
}());

} // anonymous namespace
