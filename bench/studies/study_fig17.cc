/**
 * @file
 * Fig. 17: aggregate IPC of the 64-core CMP across one
 * reconfiguration under the three data-movement schemes: idealized
 * instant moves, CDCS demand moves + background invalidations, and
 * Jigsaw bulk invalidations.
 *
 * Paper shape: bulk invalidations pause the whole chip for ~100
 * Kcycles (IPC crater) and lose warm data; background invalidations
 * track instant moves closely with no pause.
 */

#include <algorithm>

#include "sim/experiment.hh"
#include "sim/study.hh"

namespace
{

using namespace cdcs;

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "fig17";
    spec.title = "Fig. 17";
    spec.paperRef = "IPC across one reconfiguration";
    spec.category = "figure";
    spec.defaultMixes = 1;
    spec.lineup = {"cdcs"};
    spec.configure = [](SystemConfig &cfg) { cfg.traceIpc = true; };
    spec.run = [](StudyContext &ctx) {
        ctx.header(1);
        const MixSpec mix = MixSpec::cpu(64, 7000);

        std::vector<std::pair<const char *, MoveScheme>> modes = {
            {"instant", MoveScheme::Instant},
            {"background-inv", MoveScheme::DemandBackground},
            {"bulk-inv", MoveScheme::BulkInvalidate},
        };
        std::vector<ExperimentRunner::Job> jobs;
        for (const auto &[name, moves] : modes) {
            SchemeSpec scheme = schemeByName("cdcs");
            scheme.moves = moves;
            scheme.name = name;
            jobs.push_back({ctx.cfg, scheme, mix});
        }
        const std::vector<RunResult> results =
            ctx.runner.runAll(jobs);
        std::vector<std::vector<double>> traces;
        for (std::size_t i = 0; i < results.size(); i++) {
            traces.push_back(results[i].ipcTrace);
            const std::string name =
                std::string("fig17_trace_") + modes[i].first;
            ctx.sink.artifact(name, "trace",
                              traceToJson(name, results[i]));
        }

        std::size_t bins = 0;
        for (const auto &t : traces)
            bins = std::max(bins, t.size());
        ctx.sink.printf("%10s %12s %16s %12s   (aggregate IPC, bin "
                        "= %llu cycles)\n",
                        "Kcycles", "instant", "background-inv",
                        "bulk-inv",
                        static_cast<unsigned long long>(
                            ctx.cfg.traceBinCycles));
        for (std::size_t b = 0; b < bins; b++) {
            ctx.sink.printf("%10.0f",
                            b * ctx.cfg.traceBinCycles / 1000.0);
            for (const auto &t : traces)
                ctx.sink.printf(" %12.2f",
                                b < t.size() ? t[b] : 0.0);
            ctx.sink.printf("\n");
        }
    };
    return spec;
}());

} // anonymous namespace
