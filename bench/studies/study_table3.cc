/**
 * @file
 * Table 3 as a study: CPU time of the CDCS reconfiguration steps
 * (capacity allocation, thread placement, data placement) for 16
 * threads / 16 cores, 16 / 64 and 64 / 64 on realistic inputs,
 * reported in Mcycles at the paper's 2 GHz.
 *
 * The runtime reports its own per-step microsecond timings, so this
 * study needs no external benchmarking framework; the legacy
 * google-benchmark harness (bench_table3_runtime) remains for
 * statistically rigorous measurements. Timing output is inherently
 * machine-dependent — this is the one study whose numbers are not
 * byte-reproducible.
 *
 * Paper numbers: 0.72 / 1.46 / 6.49 Mcycles total respectively —
 * ~0.2% of system cycles at a 25 ms period.
 */

#include "common/rng.hh"
#include "mesh/mesh.hh"
#include "nuca/policy.hh"
#include "runtime/cdcs_runtime.hh"
#include "sim/study.hh"

namespace
{

using namespace cdcs;

/** Build a realistic RuntimeInput for T threads on an NxN mesh. */
RuntimeInput
makeInput(const Mesh &mesh, int threads, std::uint64_t seed)
{
    Rng rng(seed);
    RuntimeInput in;
    in.mesh = &mesh;
    in.numBanks = mesh.numTiles();
    in.banksPerTile = 1;
    in.bankLines = 8192;
    in.allocGranule = 64;
    const int num_vcs = threads + threads / 8 + 2;
    for (int d = 0; d < num_vcs; d++) {
        Curve miss;
        const double total = rng.uniform(1e4, 1e5);
        const double knee = rng.uniform(4096.0, 65536.0);
        miss.addPoint(0.0, total);
        miss.addPoint(knee, total * rng.uniform(0.05, 0.7));
        miss.addPoint(knee * 8, total * 0.04);
        in.missCurves.push_back(miss);
    }
    for (int t = 0; t < threads; t++) {
        std::vector<double> row(num_vcs, 0.0);
        row[t % num_vcs] = rng.uniform(1e4, 1e5);
        row[num_vcs - 2] = rng.uniform(10.0, 1e3);
        row[num_vcs - 1] = rng.uniform(1.0, 50.0);
        in.access.push_back(row);
        in.threadCore.push_back(static_cast<TileId>(t));
    }
    return in;
}

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "table3";
    spec.title = "Table 3 runtime cost";
    spec.paperRef = "CDCS reconfiguration steps, Mcycles at 2 GHz";
    spec.category = "table";
    spec.defaultMixes = 1;
    spec.run = [](StudyContext &ctx) {
        const int iters =
            static_cast<int>(ctx.knob("table3Iters", 5));

        ctx.sink.printf("== Table 3: CDCS reconfiguration runtime "
                        "(%d invocations each, Mcycles at 2 GHz) "
                        "==\n",
                        iters);
        ctx.sink.printf("%-22s %10s %10s %10s %10s\n",
                        "threads/cores", "alloc", "thread", "data",
                        "total");

        const int combos[3][2] = {{16, 4}, {16, 8}, {64, 8}};
        for (const auto &combo : combos) {
            const int threads = combo[0];
            const int dim = combo[1];
            Mesh mesh(dim, dim);
            const RuntimeInput input = makeInput(mesh, threads, 7);
            CdcsRuntime runtime;
            RuntimeStepTimes sums;
            for (int i = 0; i < iters; i++) {
                const RuntimeOutput out = runtime.reconfigure(input);
                sums.allocUs += out.times.allocUs;
                sums.threadPlaceUs += out.times.threadPlaceUs;
                sums.dataPlaceUs += out.times.dataPlaceUs;
            }
            // Microseconds to Mcycles at 2 GHz (2000 cycles / us).
            const double to_mcycles = 2000.0 / 1e6 / iters;
            char label[32];
            std::snprintf(label, sizeof(label), "%d / %d", threads,
                          dim * dim);
            ctx.sink.printf("%-22s %10.2f %10.2f %10.2f %10.2f\n",
                            label, sums.allocUs * to_mcycles,
                            sums.threadPlaceUs * to_mcycles,
                            sums.dataPlaceUs * to_mcycles,
                            sums.totalUs() * to_mcycles);
        }
    };
    return spec;
}());

} // anonymous namespace
