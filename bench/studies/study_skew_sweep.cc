/**
 * @file
 * Zipfian skew x memory placement: how hard a skewed hot-object
 * overlay (the dynamic-traffic layer's DistCache-style popularity
 * model) hits each scheme, and how much of the induced
 * memory-controller load imbalance each placement policy recovers.
 * `d2choice` is the DistCache power-of-two-choices pin; `contention`
 * adds epoch re-pinning on measured route waits.
 *
 * Expected shape: at alpha = 0 the overlay is uniform and the
 * policies tie. As alpha grows, `interleave`'s per-controller
 * imbalance rises with the skew while `d2choice` flattens it at
 * first touch (no migrations) and `contention` chases it with
 * migrations; the flit-weighted mem-route wait follows the
 * imbalance.
 */

#include <cstdio>
#include <iterator>
#include <string>

#include "common/stats.hh"
#include "sim/study.hh"
#include "noc_studies.hh"

namespace
{

using namespace cdcs;

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "skew_sweep";
    spec.title = "Zipf skew x memory placement";
    spec.paperRef =
        "Zipf alpha x placement policies, contention mesh";
    spec.category = "ablation";
    spec.defaultMixes = 2;
    spec.lineup = {"snuca", "jigsaw-r", "cdcs"};
    spec.run = [](StudyContext &ctx) {
        ctx.header();
        const std::vector<SchemeSpec> schemes = ctx.lineup();
        const auto mix_of = [](int m) {
            return MixSpec::cpu(64, nocMixSeedBase + m);
        };

        const char *policies[] = {"interleave", "d2choice",
                                  "contention"};
        const double alphas[] = {0.0, 0.9, 1.4};
        // sweeps[policy][alpha]
        std::vector<std::vector<SweepResult>> sweeps(
            std::size(policies));
        for (std::size_t p = 0; p < std::size(policies); p++) {
            for (double alpha : alphas) {
                SystemConfig cfg = ctx.cfg;
                cfg.nocModel = "contention";
                cfg.memPlacement = policies[p];
                cfg.skewAlpha = alpha;
                sweeps[p].push_back(ctx.runner.sweep(
                    cfg, schemes, ctx.mixes, mix_of));
                char name[64];
                std::snprintf(name, sizeof(name),
                              "skew_sweep_%s_a%g", policies[p],
                              alpha);
                ctx.sink.sweep(name, sweeps[p].back());
            }
        }

        const auto table = [&](const char *title, auto &&value) {
            ctx.sink.printf("%s\n", title);
            ctx.sink.printf("%-10s %-12s", "alpha", "policy");
            for (const SchemeSpec &s : schemes)
                ctx.sink.printf(" %10s", s.name.c_str());
            ctx.sink.printf("\n");
            for (std::size_t i = 0; i < std::size(alphas); i++) {
                for (std::size_t p = 0; p < std::size(policies);
                     p++) {
                    char label[32];
                    std::snprintf(label, sizeof(label), "%g",
                                  alphas[i]);
                    ctx.sink.printf("%-10s %-12s", label,
                                    policies[p]);
                    for (std::size_t s = 0; s < schemes.size(); s++)
                        ctx.sink.printf(" %10.3f",
                                        value(sweeps[p][i], s));
                    ctx.sink.printf("\n");
                }
            }
        };

        table("-- gmean weighted speedup over S-NUCA --",
              [](const SweepResult &sweep, std::size_t s) {
                  return sweep.mixes() > 0 ? gmean(sweep.ws[s])
                                           : 0.0;
              });
        ctx.sink.printf("\n");
        table("-- mem controller load imbalance (peak/mean, "
              "mix 0) --",
              [](const SweepResult &sweep, std::size_t s) {
                  return sweep.firstRun[s].memCtrlImbalance();
              });
        ctx.sink.printf("\n");
        table("-- flit-weighted mean mem-route wait (cycles, "
              "mix 0) --",
              [](const SweepResult &sweep, std::size_t s) {
                  return flitWeightedMeanMemWait(sweep.firstRun[s]);
              });
        ctx.sink.printf("\n");
        table("-- off-chip latency per instruction (cycles) --",
              [](const SweepResult &sweep, std::size_t s) {
                  return sweep.offChipLat[s];
              });
    };
    return spec;
}());

} // anonymous namespace
