/**
 * @file
 * Fig. 18: weighted speedup of 64-app mixes as the reconfiguration
 * period shrinks, for bulk invalidations, background invalidations
 * and idealized instant moves.
 *
 * The paper sweeps 10M-100M cycle periods; our epochs are defined in
 * accesses per thread, so the sweep scales the epoch length (shorter
 * epoch == more frequent reconfigurations, same proportional cost).
 *
 * Paper shape: background invalidations beat bulk at every period and
 * the gap narrows as reconfigurations get rarer; instant moves bound
 * both from above.
 */

#include "common/stats.hh"
#include "sim/study.hh"

namespace
{

using namespace cdcs;

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "fig18";
    spec.title = "Fig. 18";
    spec.paperRef = "WS vs reconfiguration period";
    spec.category = "figure";
    spec.defaultMixes = 2;
    spec.lineup = {"snuca", "cdcs"};
    spec.run = [](StudyContext &ctx) {
        ctx.header();

        std::vector<std::pair<const char *, MoveScheme>> modes = {
            {"bulk-inv", MoveScheme::BulkInvalidate},
            {"background-inv", MoveScheme::DemandBackground},
            {"instant", MoveScheme::Instant},
        };

        ctx.sink.printf("%-22s %12s %16s %12s\n",
                        "epoch accesses/thread", "bulk-inv",
                        "background-inv", "instant");
        const std::uint64_t base_accesses =
            ctx.cfg.accessesPerThreadEpoch;
        for (double scale : {0.25, 0.5, 1.0, 2.0}) {
            SystemConfig cfg = ctx.cfg;
            cfg.accessesPerThreadEpoch =
                static_cast<std::uint64_t>(base_accesses * scale);
            std::vector<SchemeSpec> schemes = {schemeByName("snuca")};
            for (const auto &[name, moves] : modes) {
                SchemeSpec scheme = schemeByName("cdcs");
                scheme.moves = moves;
                scheme.name = name;
                schemes.push_back(scheme);
            }
            const SweepResult sweep = ctx.runner.sweep(
                cfg, schemes, ctx.mixes,
                [&](int m) { return MixSpec::cpu(64, 8000 + m); });
            ctx.sink.sweep(
                std::string("fig18_period_") +
                    std::to_string(cfg.accessesPerThreadEpoch),
                sweep);
            ctx.sink.printf("%-22llu %12.3f %16.3f %12.3f\n",
                            static_cast<unsigned long long>(
                                cfg.accessesPerThreadEpoch),
                            gmean(sweep.ws[1]), gmean(sweep.ws[2]),
                            gmean(sweep.ws[3]));
            ctx.sink.flush();
        }
    };
    return spec;
}());

} // anonymous namespace
