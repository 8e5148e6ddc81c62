/**
 * @file
 * Sec. VI-C, "Bank-partitioned NUCA": CDCS without fine-grained
 * partitioning — four 128 KB banks per tile, whole-bank allocation
 * (Sec. IV-I) — vs. fine-grained CDCS and S-NUCA.
 *
 * Paper shape: bank-granular CDCS keeps most of the benefit (36% vs
 * 46% gmean over S-NUCA at 64 apps) but loses from coarser capacity
 * allocation.
 */

#include "common/stats.hh"
#include "sim/study.hh"

namespace
{

using namespace cdcs;

const StudyRegistrar registrar([] {
    StudySpec spec;
    spec.name = "vic_bankgrain";
    spec.title = "Sec. VI-C bank-granular CDCS";
    spec.paperRef = "4 x 128 KB banks/tile, whole-bank allocation";
    spec.category = "ablation";
    spec.defaultMixes = 3;
    spec.lineup = {"snuca", "cdcs"};
    spec.run = [](StudyContext &ctx) {
        const SystemConfig &fine_cfg = ctx.cfg;
        SystemConfig bank_cfg = fine_cfg;
        bank_cfg.banksPerTile = 4;
        bank_cfg.bankLines = 2048;
        bank_cfg.allocGranuleLines = 2048;

        writeStudyHeader(ctx.sink, ctx.spec.title.c_str(),
                         ctx.spec.paperRef.c_str(), bank_cfg,
                         ctx.mixes);

        SchemeSpec bank_spec = schemeByName("cdcs");
        bank_spec.cdcsOpts.placeGranule = 2048.0;
        bank_spec.cdcsOpts.minAllocLines = 2048.0;
        bank_spec.cdcsOpts.sizeHysteresis = 0.4;
        bank_spec.name = "CDCS-bank";

        const int apps = static_cast<int>(ctx.knob("apps", 48));
        const auto mix_of = [&](int m) {
            return MixSpec::cpu(apps, 9800 + m);
        };
        const SweepResult fine = ctx.runner.sweep(
            fine_cfg, ctx.lineup(), ctx.mixes, mix_of);
        const SweepResult bank = ctx.runner.sweep(
            bank_cfg, {schemeByName("snuca"), bank_spec}, ctx.mixes,
            mix_of);

        ctx.sink.sweep("vic_bankgrain_fine", fine);
        ctx.sink.sweep("vic_bankgrain_bank", bank);

        ctx.sink.printf("%-12s %10s\n", "scheme", "gmeanWS");
        ctx.sink.printf("%-12s %10.3f\n", "CDCS-fine",
                        gmean(fine.ws[1]));
        ctx.sink.printf("%-12s %10.3f\n", "CDCS-bank",
                        gmean(bank.ws[1]));
    };
    return spec;
}());

} // anonymous namespace
