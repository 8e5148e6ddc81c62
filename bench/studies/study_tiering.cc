/**
 * @file
 * Far-memory tiering study: near-capacity ratio x tiering policy x
 * NoC injection scale under a Zipf hot-object overlay. `static`
 * freezes the hash split that seeds both policies; `hotness`
 * additionally promotes the pages the overlay concentrates accesses
 * on (and demotes cold near pages to keep the split), so its win
 * over `static` isolates the benefit of hotness-ranked migration.
 *
 * Expected shape: the LLC retains the Zipf head, so the miss stream
 * the memory tiers serve is the page-aligned thrashing band just past
 * retention (skewPageHot keeps that band skewed at page granularity).
 * Under `static`, farMemRatio of that band pays the far latency
 * forever; `hotness` promotes its sustained pages (the reuse filter
 * keeps one-shot scans out) within a few epochs, so at every ratio
 * its gmean weighted speedup rises and its far access share dips
 * below the static arm's.
 */

#include <cstdint>
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
    spec.name = "tiering";
    spec.title = "Far-memory tiering";
    spec.paperRef =
        "capacity disaggregation: near ratio x tier policy";
    spec.category = "ablation";
    spec.defaultMixes = 2;
    spec.lineup = {"snuca", "jigsaw-r", "cdcs"};
    spec.run = [](StudyContext &ctx) {
        ctx.header();
        const std::vector<SchemeSpec> schemes = ctx.lineup();
        const auto mix_of = [](int m) {
            return MixSpec::cpu(64, nocMixSeedBase + m);
        };

        const double ratios[] = {0.25, 0.5, 0.75};
        const char *policies[] = {"static", "hotness"};
        const double inj_scales[] = {1.0, 4.0};

        struct Cell
        {
            double ratio;
            double inj;
            const char *policy;
            SweepResult sweep;
        };
        std::vector<Cell> cells;
        for (double ratio : ratios) {
            for (double inj : inj_scales) {
                for (const char *policy : policies) {
                    SystemConfig cfg = ctx.cfg;
                    cfg.nocModel = "contention";
                    cfg.nocInjScale = inj;
                    // Alpha just above the acceptance floor (1.2):
                    // a steeper skew parks nearly all overlay mass
                    // in the LLC-retained head, leaving no miss
                    // stream to re-tier; at 1.25 roughly a tenth of
                    // the overlay mass thrashes past retention as a
                    // still-Zipf page stream.
                    cfg.skewAlpha = 1.25;
                    // Most traffic goes through the overlay: the LLC
                    // retains the Zipf head, so the miss stream the
                    // tiers serve is the thrashing band past
                    // retention — the part page migration can help.
                    cfg.skewFraction = 0.8;
                    // A disaggregated pool several times DRAM
                    // latency (not the gentle default): what each
                    // mis-tiered hot page actually costs.
                    cfg.farMemLatency = 600;
                    // An overlay well past LLC capacity with a
                    // page-aligned hot-set table: the thrashing band
                    // of hot ranks misses as whole pages, so the
                    // page-level miss stream is genuinely Zipf-skewed
                    // and hotness-ranked promotion has a hot set to
                    // chase.
                    cfg.skewLines = std::uint64_t{1} << 21;
                    cfg.skewHotLines = std::uint64_t{1} << 18;
                    cfg.skewPageHot = true;
                    cfg.farMemRatio = ratio;
                    cfg.memTiering = policy;
                    cells.push_back(
                        {ratio, inj, policy,
                         ctx.runner.sweep(cfg, schemes, ctx.mixes,
                                          mix_of)});
                    char name[64];
                    std::snprintf(name, sizeof(name),
                                  "tiering_r%g_i%g_%s", ratio, inj,
                                  policy);
                    ctx.sink.sweep(name, cells.back().sweep);
                }
            }
        }

        const auto table = [&](const char *title, auto &&value) {
            ctx.sink.printf("%s\n", title);
            ctx.sink.printf("%-8s %-6s %-10s", "ratio", "inj",
                            "policy");
            for (const SchemeSpec &s : schemes)
                ctx.sink.printf(" %10s", s.name.c_str());
            ctx.sink.printf("\n");
            for (const Cell &cell : cells) {
                char ratio_s[16];
                char inj_s[16];
                std::snprintf(ratio_s, sizeof(ratio_s), "%g",
                              cell.ratio);
                std::snprintf(inj_s, sizeof(inj_s), "%g", cell.inj);
                ctx.sink.printf("%-8s %-6s %-10s", ratio_s, inj_s,
                                cell.policy);
                for (std::size_t s = 0; s < schemes.size(); s++)
                    ctx.sink.printf(" %10.3f", value(cell.sweep, s));
                ctx.sink.printf("\n");
            }
        };

        table("-- gmean weighted speedup over S-NUCA --",
              [](const SweepResult &sweep, std::size_t s) {
                  return sweep.mixes() > 0 ? gmean(sweep.ws[s])
                                           : 0.0;
              });
        ctx.sink.printf("\n");
        table("-- off-chip latency per instruction (cycles) --",
              [](const SweepResult &sweep, std::size_t s) {
                  return sweep.offChipLat[s];
              });
        ctx.sink.printf("\n");
        table("-- far access share (mix 0) --",
              [](const SweepResult &sweep, std::size_t s) {
                  return sweep.firstRun[s].farAccessShare();
              });
        ctx.sink.printf("\n");
        table("-- flit-weighted mean far-attach wait (cycles, "
              "mix 0) --",
              [](const SweepResult &sweep, std::size_t s) {
                  return flitWeightedMeanFarMemWait(
                      sweep.firstRun[s]);
              });
        for (const Cell &cell : cells) {
            if (std::string(cell.policy) != "hotness")
                continue;
            char title[96];
            std::snprintf(title, sizeof(title),
                          "\n-- tier counters, ratio %g inj %g "
                          "(hotness, mix 0) --",
                          cell.ratio, cell.inj);
            ctx.sink.printf("%s", title);
            writeTierSummary(ctx.sink, cell.sweep);
        }

        // The plot_tiering.py payload: one record per grid cell with
        // the per-scheme aggregates the curves are drawn from.
        std::string json = "{\"schema\": \"cdcs-tiering-v1\", "
                           "\"cells\": [";
        for (std::size_t c = 0; c < cells.size(); c++) {
            const Cell &cell = cells[c];
            char buf[160];
            json += c > 0 ? ", " : "";
            std::snprintf(buf, sizeof(buf),
                          "{\"ratio\": %.17g, \"inj\": %.17g, "
                          "\"policy\": \"%s\", \"schemes\": [",
                          cell.ratio, cell.inj, cell.policy);
            json += buf;
            for (std::size_t s = 0; s < schemes.size(); s++) {
                const RunResult &run = cell.sweep.firstRun[s];
                json += s > 0 ? ", " : "";
                json += "{\"name\": \"" + schemes[s].name + "\", ";
                std::snprintf(
                    buf, sizeof(buf),
                    "\"gmeanWs\": %.17g, \"offChipLat\": %.17g, "
                    "\"farShare\": %.17g, \"promotions\": %llu}",
                    cell.sweep.mixes() > 0 ? gmean(cell.sweep.ws[s])
                                           : 0.0,
                    cell.sweep.offChipLat[s], run.farAccessShare(),
                    static_cast<unsigned long long>(
                        run.tierPromotions));
                json += buf;
            }
            json += "]}";
        }
        json += "]}";
        ctx.sink.artifact("tiering_summary", "artifact", json);
    };
    return spec;
}());

} // anonymous namespace
