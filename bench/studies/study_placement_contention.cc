/**
 * @file
 * Contention-aware placement: what feeding the measured NoC link
 * waits into the CDCS runtime's cost model buys. For each injection
 * scale the contended lineup runs twice — once with the placement
 * cost oracle pinned to the paper's flat hop arithmetic
 * (placementCost=zero-load, the control arm) and once pricing
 * placements on the live contention snapshot (placementCost=noc, the
 * default) — and the study reports gmean weighted speedup, average
 * on-chip latency, peak link utilization and the flit-weighted mean
 * link wait for both arms.
 *
 * Expected shape: at low scales the wait quantum suppresses the
 * (noise-level) contention signal and the arms coincide; as links
 * saturate, contention-cost placement steers VCs and threads off the
 * loaded routes and the flit-weighted mean link wait drops below the
 * zero-load-cost arm.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>

#include "common/stats.hh"
#include "sim/study.hh"
#include "noc_studies.hh"

namespace
{

using namespace cdcs;

/** Peak link utilization of one run. */
double
peakLinkUtil(const RunResult &run)
{
    double peak = 0.0;
    for (const NocLinkStat &link : run.nocLinks)
        peak = std::max(peak, link.util);
    return peak;
}

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "placement_contention";
    spec.title = "Contention-aware placement";
    spec.paperRef =
        "schemes x injection scale, zero-load-cost vs "
        "contention-cost placement";
    spec.category = "ablation";
    spec.defaultMixes = 2;
    spec.lineup = {"snuca", "rnuca", "jigsaw-r", "cdcs"};
    // The result cache serves the runs the two placement-cost arms
    // share, and in batched invocations the noc-cost arm's runs at
    // noc_sensitivity's scales (same mix seeds).
    spec.run = [](StudyContext &ctx) {
        ctx.header();
        const std::vector<SchemeSpec> schemes = ctx.lineup();
        const auto mix_of = [](int m) {
            return MixSpec::cpu(64, nocMixSeedBase + m);
        };

        const double scales[] = {1.0, 2.0, 4.0, 8.0};
        const char *arms[] = {"zero-load", "noc"};
        // sweeps[arm][scale]
        std::vector<std::vector<SweepResult>> sweeps(2);
        for (int arm = 0; arm < 2; arm++) {
            for (double scale : scales) {
                SystemConfig cfg = ctx.cfg;
                cfg.nocModel = "contention";
                cfg.nocInjScale = scale;
                cfg.placementCost = arms[arm];
                sweeps[arm].push_back(ctx.runner.sweep(
                    cfg, schemes, ctx.mixes, mix_of));
                char name[64];
                std::snprintf(name, sizeof(name),
                              "placement_contention_%s_x%g",
                              arms[arm], scale);
                ctx.sink.sweep(name, sweeps[arm].back());
            }
        }

        const auto table = [&](const char *title,
                               auto &&value) {
            ctx.sink.printf("%s\n", title);
            ctx.sink.printf("%-10s %-10s", "inj-scale", "cost");
            for (const SchemeSpec &s : schemes)
                ctx.sink.printf(" %10s", s.name.c_str());
            ctx.sink.printf("\n");
            for (std::size_t i = 0; i < std::size(scales); i++) {
                for (int arm = 0; arm < 2; arm++) {
                    char label[32];
                    std::snprintf(label, sizeof(label), "x%g",
                                  scales[i]);
                    ctx.sink.printf("%-10s %-10s", label,
                                    arms[arm]);
                    for (std::size_t s = 0; s < schemes.size();
                         s++) {
                        ctx.sink.printf(
                            " %10.3f",
                            value(sweeps[arm][i], s));
                    }
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
        table("-- avg on-chip latency of LLC accesses (cycles) --",
              [](const SweepResult &sweep, std::size_t s) {
                  return sweep.onChipLat[s];
              });
        ctx.sink.printf("\n");
        table("-- peak link utilization (mix 0) --",
              [](const SweepResult &sweep, std::size_t s) {
                  return peakLinkUtil(sweep.firstRun[s]);
              });
        ctx.sink.printf("\n");
        table("-- flit-weighted mean link wait (cycles, mix 0) --",
              [](const SweepResult &sweep, std::size_t s) {
                  return flitWeightedMeanLinkWait(sweep.firstRun[s]);
              });
    };
    return spec;
}());

} // anonymous namespace
