/**
 * @file
 * Elasticity under tenant churn: threads depart mid-run and return
 * later (the dynamic-traffic layer's epoch-boundary churn schedule),
 * and the schemes differ in how fast they reconfigure around the
 * churn and recover per-thread throughput. Reports weighted speedup
 * per churn level, the churn events' weighted-speedup recovery
 * latency and reconfiguration latency (epochs, mean over mixes and
 * events), and the placement churn they cost; per-epoch traces land
 * as artifacts for tools/plot_elasticity.py.
 *
 * Expected shape: all schemes lose throughput at the departure and
 * regain it by the arrival; the partitioned schemes reconfigure
 * within an epoch or two of each event, and CDCS's incremental moves
 * keep its recovery at or below Jigsaw's bulk-invalidate latency.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/format.hh"
#include "common/stats.hh"
#include "sim/report.hh"
#include "sim/study.hh"
#include "noc_studies.hh"

namespace
{

using namespace cdcs;

struct ChurnLevel
{
    const char *name;
    int threads; ///< Threads departing (then returning); 0 = none.
};

/**
 * The per-epoch churn trace, on the shared metrics-trace schema with
 * the study's own keys (churn level, event epochs) folded in as
 * extra top-level fields.
 */
std::string
traceJson(const char *level, const std::string &scheme, int down,
          int up, const RunResult &run)
{
    std::string extra;
    appendF(extra, "\"level\": \"%s\", \"events\": [%d, %d], ",
            level, down, up);
    return metricsTraceJson(scheme, run, extra);
}

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "elasticity";
    spec.title = "Elasticity under tenant churn";
    spec.paperRef = "churn level x schemes, epoch-boundary churn";
    spec.category = "ablation";
    spec.defaultMixes = 2;
    spec.lineup = {"snuca", "jigsaw-r", "cdcs"};
    // Churn needs room: a window before, between and after the two
    // events. --set epochs/warmup still override.
    spec.configure = [](SystemConfig &cfg) {
        cfg.epochs = 12;
        cfg.warmupEpochs = 2;
    };
    spec.run = [](StudyContext &ctx) {
        ctx.header();
        const std::vector<SchemeSpec> schemes = ctx.lineup();
        const auto mix_of = [](int m) {
            return MixSpec::cpu(64, nocMixSeedBase + m);
        };

        // Event epochs from the resolved config: departure a third
        // into the measured window, arrival two thirds in.
        const int warm = ctx.cfg.warmupEpochs;
        const int total = ctx.cfg.epochs;
        const int span = total > warm ? total - warm : 0;
        int down = warm + std::max(1, span / 3);
        int up = warm + std::max(2, 2 * span / 3);
        if (up >= total)
            up = total - 1;
        if (down >= up)
            down = std::max(1, up - 1);

        const ChurnLevel levels[] = {
            {"none", 0}, {"mild", 8}, {"heavy", 24}};
        const auto churn_of = [&](const ChurnLevel &level) {
            if (level.threads == 0)
                return std::string();
            std::string churn;
            appendF(churn, "%d:-%d,%d:+%d", down, level.threads, up,
                    level.threads);
            return churn;
        };

        std::vector<SweepResult> sweeps;
        for (const ChurnLevel &level : levels) {
            SystemConfig cfg = ctx.cfg;
            cfg.churn = churn_of(level);
            sweeps.push_back(
                ctx.runner.sweep(cfg, schemes, ctx.mixes, mix_of));
            char name[64];
            std::snprintf(name, sizeof(name), "elasticity_%s",
                          level.name);
            ctx.sink.sweep(name, sweeps.back());
        }

        ctx.sink.printf("churn events: -N entering epoch %d, "
                        "+N entering epoch %d (of %d epochs, "
                        "%d warmup)\n\n",
                        down, up, total, warm);

        const auto table = [&](const char *title, std::size_t first,
                               auto &&value) {
            ctx.sink.printf("%s\n", title);
            ctx.sink.printf("%-10s", "churn");
            for (const SchemeSpec &s : schemes)
                ctx.sink.printf(" %10s", s.name.c_str());
            ctx.sink.printf("\n");
            for (std::size_t l = first; l < std::size(levels); l++) {
                ctx.sink.printf("%-10s", levels[l].name);
                for (std::size_t s = 0; s < schemes.size(); s++)
                    ctx.sink.printf(" %10.3f", value(l, s));
                ctx.sink.printf("\n");
            }
        };

        table("-- gmean weighted speedup over S-NUCA --", 0,
              [&](std::size_t l, std::size_t s) {
                  return sweeps[l].mixes() > 0
                      ? gmean(sweeps[l].ws[s])
                      : 0.0;
              });
        ctx.sink.printf("\n");

        // Per-event elasticity metrics, mean over mixes and the two
        // events. The per-mix runs were all simulated by the sweeps
        // above, so these lookups come out of the result cache.
        const auto run_of = [&](std::size_t l, std::size_t s,
                                int m) {
            SystemConfig cfg = ctx.cfg;
            cfg.churn = churn_of(levels[l]);
            return ctx.runner.run(cfg, schemes[s], mix_of(m));
        };
        const auto mean_metric = [&](std::size_t l, std::size_t s,
                                     auto &&metric) {
            double sum = 0.0;
            int n = 0;
            for (int m = 0; m < ctx.mixes; m++) {
                const RunResult run = run_of(l, s, m);
                for (int event : {down, up}) {
                    sum += metric(run, event);
                    n++;
                }
            }
            return n > 0 ? sum / n : 0.0;
        };

        table("-- WS recovery epochs after churn (mean over mixes "
              "and events; window length if never) --",
              1, [&](std::size_t l, std::size_t s) {
                  return mean_metric(
                      l, s, [&](const RunResult &run, int event) {
                          const int rec =
                              run.recoveryEpochsAfter(event);
                          if (rec >= 0)
                              return static_cast<double>(rec);
                          // Never recovered inside the window:
                          // charge the whole window.
                          const int end =
                              event < up ? up : total;
                          return static_cast<double>(end - event);
                      });
              });
        ctx.sink.printf("\n");
        table("-- reconfiguration latency after churn (epochs, mean "
              "over mixes and events) --",
              1, [&](std::size_t l, std::size_t s) {
                  return mean_metric(
                      l, s, [](const RunResult &run, int event) {
                          const int lat =
                              run.reconfigLatencyAfter(event);
                          return lat > 0
                              ? static_cast<double>(lat)
                              : 0.0;
                      });
              });
        ctx.sink.printf("\n");
        table("-- thread placement moves over the run (mix 0) --", 1,
              [&](std::size_t l, std::size_t s) {
                  double moves = 0.0;
                  for (const EpochRecord &rec :
                       sweeps[l].firstRun[s].epochTrace)
                      moves += rec.placementMoves;
                  return moves;
              });

        // Per-epoch traces (mix 0) for tools/plot_elasticity.py.
        for (std::size_t l = 1; l < std::size(levels); l++) {
            for (std::size_t s = 0; s < schemes.size(); s++) {
                char name[96];
                std::snprintf(name, sizeof(name),
                              "elasticity_trace_%s_%s",
                              levels[l].name,
                              ctx.spec.lineup[s].c_str());
                ctx.sink.artifact(
                    name, "artifact",
                    traceJson(levels[l].name, schemes[s].name, down,
                              up, sweeps[l].firstRun[s]));
            }
        }
    };
    return spec;
}());

} // anonymous namespace
