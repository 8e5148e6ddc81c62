/**
 * @file
 * Memory-controller page placement: what the pluggable placement
 * policies buy under a contended network. The paper's Fig. 11d
 * discussion leaves NUMA-aware memory placement to future work; the
 * `first-touch` policy models that extension, and `contention` pairs
 * it with an epoch rebalance that re-pins hot pages away from
 * saturated controllers, priced on the NoC's measured route waits.
 * Each policy runs the contended lineup over a sweep of injection
 * scales (mix seeds shared with the noc studies, so batched
 * invocations share runs through the result cache).
 *
 * Expected shape: `first-touch` beats `interleave` on the mem-route
 * wait by shortening LLC-to-memory routes; at saturating scales
 * (x4 and up) `contention` pulls the flit-weighted mean mem-route
 * wait below `first-touch` — hot pages migrate to cooler nearby
 * controllers — without giving up weighted speedup.
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
    spec.name = "mem_placement";
    spec.title = "Memory-controller page placement";
    spec.paperRef =
        "placement policies x injection scale, contention mesh";
    spec.category = "ablation";
    spec.defaultMixes = 2;
    spec.lineup = {"snuca", "rnuca", "jigsaw-r", "cdcs"};
    spec.run = [](StudyContext &ctx) {
        ctx.header();
        const std::vector<SchemeSpec> schemes = ctx.lineup();
        const auto mix_of = [](int m) {
            return MixSpec::cpu(64, nocMixSeedBase + m);
        };

        const char *policies[] = {"interleave", "first-touch",
                                  "contention"};
        const double scales[] = {1.0, 4.0, 8.0};
        // sweeps[policy][scale]
        std::vector<std::vector<SweepResult>> sweeps(
            std::size(policies));
        for (std::size_t p = 0; p < std::size(policies); p++) {
            for (double scale : scales) {
                SystemConfig cfg = ctx.cfg;
                cfg.nocModel = "contention";
                cfg.nocInjScale = scale;
                cfg.memPlacement = policies[p];
                sweeps[p].push_back(ctx.runner.sweep(
                    cfg, schemes, ctx.mixes, mix_of));
                char name[64];
                std::snprintf(name, sizeof(name),
                              "mem_placement_%s_x%g", policies[p],
                              scale);
                ctx.sink.sweep(name, sweeps[p].back());
            }
        }

        const auto table = [&](const char *title, auto &&value) {
            ctx.sink.printf("%s\n", title);
            ctx.sink.printf("%-10s %-12s", "inj-scale", "policy");
            for (const SchemeSpec &s : schemes)
                ctx.sink.printf(" %10s", s.name.c_str());
            ctx.sink.printf("\n");
            for (std::size_t i = 0; i < std::size(scales); i++) {
                for (std::size_t p = 0; p < std::size(policies);
                     p++) {
                    char label[32];
                    std::snprintf(label, sizeof(label), "x%g",
                                  scales[i]);
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
        ctx.sink.printf("\n");
        table("-- pages migrated (mix 0) --",
              [](const SweepResult &sweep, std::size_t s) {
                  return static_cast<double>(
                      sweep.firstRun[s].memMigratedPages);
              });
    };
    return spec;
}());

} // anonymous namespace
