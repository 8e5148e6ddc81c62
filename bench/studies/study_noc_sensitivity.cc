/**
 * @file
 * NoC sensitivity: how each scheme's on-chip latency inflates when
 * the network can congest. The paper evaluates at zero load (3-cycle
 * routers, 1-cycle links, Table 2); this study swaps in the
 * contention-aware mesh (noc=contention) and sweeps the
 * injection-rate scale, so CDCS's traffic reduction (Fig. 11d)
 * translates into a latency advantage that grows with load.
 *
 * Expected shape: per-scheme average on-chip latency is monotonically
 * non-decreasing in the injection scale; S-NUCA, with ~3x CDCS's
 * traffic, inflates fastest, so CDCS's weighted speedup over S-NUCA
 * widens as the network loads up. (Strict monotonicity holds with
 * `placementCost=zero-load`; under the default contention-aware
 * placement cost the partitioned runtimes adapt to the measured
 * waits and can dip below the zero-load-placement latency — the
 * effect the placement_contention study isolates.)
 */

#include <cstdio>
#include <string>

#include "common/stats.hh"
#include "sim/study.hh"
#include "noc_studies.hh"

namespace
{

using namespace cdcs;

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "noc_sensitivity";
    spec.title = "NoC sensitivity";
    spec.paperRef = "schemes x injection-rate scale, contention mesh";
    spec.category = "ablation";
    spec.defaultMixes = 2;
    spec.lineup = {"snuca", "rnuca", "jigsaw-r", "cdcs"};
    spec.run = [](StudyContext &ctx) {
        ctx.header();
        const std::vector<SchemeSpec> schemes = ctx.lineup();
        const auto mix_of = [](int m) {
            return MixSpec::cpu(64, nocMixSeedBase + m);
        };

        const double scales[] = {1.0, 2.0, 4.0, 8.0};
        std::vector<SweepResult> sweeps;

        SystemConfig zero_load = ctx.cfg;
        zero_load.nocModel = "zero-load";
        sweeps.push_back(ctx.runner.sweep(zero_load, schemes,
                                          ctx.mixes, mix_of));
        ctx.sink.sweep("noc_sensitivity_zero_load", sweeps.back());
        for (double scale : scales) {
            SystemConfig cfg = ctx.cfg;
            cfg.nocModel = "contention";
            cfg.nocInjScale = scale;
            sweeps.push_back(ctx.runner.sweep(cfg, schemes,
                                              ctx.mixes, mix_of));
            char name[64];
            std::snprintf(name, sizeof(name),
                          "noc_sensitivity_x%g", scale);
            ctx.sink.sweep(name, sweeps.back());
        }

        const auto row_label = [&](std::size_t i) -> std::string {
            if (i == 0)
                return "zero-load";
            char label[32];
            std::snprintf(label, sizeof(label), "x%g",
                          scales[i - 1]);
            return label;
        };

        ctx.sink.printf("-- avg on-chip latency of LLC accesses "
                        "(cycles) --\n");
        ctx.sink.printf("%-12s", "inj-scale");
        for (const SchemeSpec &s : schemes)
            ctx.sink.printf(" %10s", s.name.c_str());
        ctx.sink.printf("\n");
        for (std::size_t i = 0; i < sweeps.size(); i++) {
            ctx.sink.printf("%-12s", row_label(i).c_str());
            for (std::size_t s = 0; s < schemes.size(); s++)
                ctx.sink.printf(" %10.2f", sweeps[i].onChipLat[s]);
            ctx.sink.printf("\n");
        }

        ctx.sink.printf("\n-- gmean weighted speedup over S-NUCA "
                        "--\n");
        ctx.sink.printf("%-12s", "inj-scale");
        for (const SchemeSpec &s : schemes)
            ctx.sink.printf(" %10s", s.name.c_str());
        ctx.sink.printf("\n");
        for (std::size_t i = 0; i < sweeps.size(); i++) {
            ctx.sink.printf("%-12s", row_label(i).c_str());
            // Degenerate mixes=0 sweeps have no speedups to average.
            for (std::size_t s = 0; s < schemes.size(); s++) {
                ctx.sink.printf(" %10.3f",
                                sweeps[i].mixes() > 0
                                    ? gmean(sweeps[i].ws[s])
                                    : 0.0);
            }
            ctx.sink.printf("\n");
        }

        // Flit-weighted mean link wait: the direct queueing delay a
        // flit sees, from the per-link accounting of the mix-0 run
        // (zero under the zero-load reference, which tracks no
        // links).
        ctx.sink.printf("\n-- flit-weighted mean link wait "
                        "(cycles, mix 0) --\n");
        ctx.sink.printf("%-12s", "inj-scale");
        for (const SchemeSpec &s : schemes)
            ctx.sink.printf(" %10s", s.name.c_str());
        ctx.sink.printf("\n");
        for (std::size_t i = 0; i < sweeps.size(); i++) {
            ctx.sink.printf("%-12s", row_label(i).c_str());
            for (std::size_t s = 0; s < schemes.size(); s++) {
                ctx.sink.printf(" %10.3f",
                                flitWeightedMeanLinkWait(
                                    sweeps[i].firstRun[s]));
            }
            ctx.sink.printf("\n");
        }
    };
    return spec;
}());

} // anonymous namespace
