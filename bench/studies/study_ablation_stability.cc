/**
 * @file
 * Ablation of this implementation's reconfiguration-stability layer
 * (DESIGN.md Sec. 7): size/allocation hysteresis, EWMA smoothing of
 * monitor inputs, and rendezvous-hashed VC descriptors.
 *
 * The paper reconfigures every 25 ms (~50 Mcycles), so a full-VC
 * remap re-warms within a fraction of an epoch and stability is free.
 * At laptop-scale epochs a remap can cost more than the
 * reconfiguration gains; this study quantifies how much of CDCS's
 * speedup the stability layer preserves, and what descriptor churn
 * (background invalidations + demand moves) looks like without it.
 */

#include "common/stats.hh"
#include "sim/study.hh"

namespace
{

using namespace cdcs;

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "ablation_stability";
    spec.title = "Stability ablation";
    spec.paperRef = "hysteresis + EWMA smoothing (DESIGN.md Sec. 7)";
    spec.category = "ablation";
    spec.defaultMixes = 2;
    spec.lineup = {"snuca", "cdcs"};
    spec.run = [](StudyContext &ctx) {
        ctx.header();

        SystemConfig raw_cfg = ctx.cfg;
        raw_cfg.monitorSmoothing = 1.0; // No EWMA.
        raw_cfg.moveCfg.allocHysteresis = 0.0;

        const SchemeSpec stable = schemeByName("cdcs");
        SchemeSpec raw = schemeByName("cdcs");
        raw.cdcsOpts.sizeHysteresis = 0.0;
        raw.name = "CDCS-raw";

        const auto mix_of = [](int m) {
            return MixSpec::cpu(48, 9900 + m);
        };
        const SweepResult with_stab = ctx.runner.sweep(
            ctx.cfg, {schemeByName("snuca"), stable}, ctx.mixes,
            mix_of);
        const SweepResult without = ctx.runner.sweep(
            raw_cfg, {schemeByName("snuca"), raw}, ctx.mixes, mix_of);

        ctx.sink.sweep("ablation_stability_stable", with_stab);
        ctx.sink.sweep("ablation_stability_raw", without);

        ctx.sink.printf("%-14s %10s %14s %14s\n", "variant",
                        "gmeanWS", "bg-invalidated", "demand-moves");
        ctx.sink.printf("%-14s %10.3f %14llu %14llu\n",
                        "CDCS(stable)", gmean(with_stab.ws[1]),
                        static_cast<unsigned long long>(
                            with_stab.firstRun[1].bgInvalidated),
                        static_cast<unsigned long long>(
                            with_stab.firstRun[1].demandMoves));
        ctx.sink.printf("%-14s %10.3f %14llu %14llu\n", "CDCS(raw)",
                        gmean(without.ws[1]),
                        static_cast<unsigned long long>(
                            without.firstRun[1].bgInvalidated),
                        static_cast<unsigned long long>(
                            without.firstRun[1].demandMoves));
    };
    return spec;
}());

} // anonymous namespace
