/**
 * @file
 * Quickstart: simulate a small tiled CMP running a mix of
 * SPEC-CPU2006-like applications under S-NUCA and CDCS, and print the
 * headline numbers. This is the smallest end-to-end use of the
 * library: build a SystemConfig (optionally overridden from the
 * command line), pick schemes from the SchemeRegistry by name, run,
 * inspect RunResult.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/example_quickstart
 *   ./build/example_quickstart meshWidth=8 meshHeight=8 epochs=12
 *   CDCS_WORKERS=1 ./build/example_quickstart
 */

#include <cstdio>

#include "sim/study.hh"

int
main(int argc, char **argv)
{
    using namespace cdcs;

    // Any key=value argument overrides the config, with the same
    // typed parser behind `cdcs_studies --set`; the CDCS_* environment
    // (e.g. CDCS_WORKERS=1 for a serial run) ranks below the settings
    // here, as a study's own settings do.
    Overrides overrides;
    std::string err;
    for (int i = 1; i < argc; i++) {
        if (!overrides.add(argv[i], &err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 1;
        }
    }
    if (!overrides.addEnvironment(&err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
    }
    // A 4x4-tile CMP with 512 KB LLC banks (an 8 MB NUCA LLC).
    SystemConfig cfg;
    overrides.apply(cfg, [](SystemConfig &c) {
        c.meshWidth = 4;
        c.meshHeight = 4;
        c.accessesPerThreadEpoch = 20000;
        c.epochs = 8;
        c.warmupEpochs = 4;
    });

    // Eight random SPEC-CPU2006-like applications.
    const MixSpec mix = MixSpec::cpu(8, /*seed=*/123);

    std::printf("running %d apps on a %dx%d CMP under S-NUCA and "
                "CDCS...\n\n",
                mix.count, cfg.meshWidth, cfg.meshHeight);

    // Both schemes run concurrently on the experiment engine's
    // work-stealing pool (workers=1 forces serial). The lineup comes
    // from the SchemeRegistry — the same names study specs use.
    ExperimentRunner runner(runnerOptions(overrides));
    const auto results = runner.runSchemes(
        cfg, schemesByName({"snuca", "cdcs"}), mix);
    const RunResult &snuca = results[0];
    const RunResult &cdcs_r = results[1];

    std::printf("%-22s %12s %12s\n", "", "S-NUCA", "CDCS");
    std::printf("%-22s %12.3f %12.3f\n", "LLC hit ratio",
                static_cast<double>(snuca.llcHits) / snuca.llcAccesses,
                static_cast<double>(cdcs_r.llcHits) /
                    cdcs_r.llcAccesses);
    std::printf("%-22s %12.1f %12.1f\n", "on-chip cycles/access",
                snuca.avgOnChipLatency(), cdcs_r.avgOnChipLatency());
    std::printf("%-22s %12.2f %12.2f\n", "energy (nJ/instr)",
                1e9 * snuca.energy.total() / snuca.totalInstrs,
                1e9 * cdcs_r.energy.total() / cdcs_r.totalInstrs);
    std::printf("%-22s %12s %12.3f\n", "weighted speedup", "1.000",
                weightedSpeedup(cdcs_r, snuca));

    std::printf("\nCDCS reconfigured %d times; average runtime "
                "%.0f us per reconfiguration\n",
                cdcs_r.reconfigs, cdcs_r.avgTimes.totalUs());
    return 0;
}
