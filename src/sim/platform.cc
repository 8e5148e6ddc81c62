#include "sim/platform.hh"

#include "common/log.hh"
#include "monitor/gmon.hh"
#include "monitor/umon.hh"
#include "nuca/rnuca.hh"
#include "nuca/snuca.hh"
#include "runtime/anneal.hh"
#include "runtime/bisect.hh"
#include "runtime/schedulers.hh"
#include "workload/mix.hh"

namespace cdcs
{

Platform::Platform(const SystemConfig &cfg, const SchemeSpec &spec,
                   const WorkloadMix &mix)
    : mesh(cfg.meshWidth, cfg.meshHeight, cfg.noc, cfg.memChannels)
{
    // Each name below must also be in its key's accepted list in
    // overrides.cc. Programmatic configs bypass that check, so an
    // unknown name fails here.
    if (cfg.nocModel == "zero-load") {
        noc = std::make_unique<NocModel>(mesh);
    } else if (cfg.nocModel == "contention") {
        noc = std::make_unique<NocModel>(
            mesh, cfg.nocInjScale, cfg.nocMaxUtil, cfg.hasFarTier());
    } else {
        fatal("unknown noc model '%s' (expected zero-load or "
              "contention)", cfg.nocModel.c_str());
    }

    if (cfg.memPlacement == "interleave") {
        memPlacement = std::make_unique<InterleaveMemPlacement>(mesh);
    } else if (cfg.memPlacement == "first-touch") {
        memPlacement = std::make_unique<FirstTouchMemPlacement>(mesh);
    } else if (cfg.memPlacement == "d2choice") {
        memPlacement = std::make_unique<D2ChoiceMemPlacement>(
            mesh, cfg.monitorSmoothing);
    } else if (cfg.memPlacement == "contention") {
        ContentionMemPlacementParams params;
        params.hopCycles = static_cast<double>(
            cfg.noc.routerCycles + cfg.noc.linkCycles);
        params.smoothing = cfg.monitorSmoothing;
        memPlacement =
            std::make_unique<ContentionMemPlacement>(mesh, params);
    } else {
        fatal("unknown mem placement policy '%s' (expected "
              "interleave, first-touch, d2choice or contention)",
              cfg.memPlacement.c_str());
    }

    if (cfg.hasFarTier()) {
        // Overrides::add validates these, but programmatic configs
        // bypass it; a bad far-tier setup must fail loudly, not
        // silently misprice the queue model.
        cdcs_assert(cfg.farMemRatio < 1.0,
                    "farMemRatio must be in [0, 1)");
        cdcs_assert(cfg.farMemChannels >= 1,
                    "farMemChannels must be at least 1");
        cdcs_assert(cfg.farMemLinesPerCycle > 0.0,
                    "farMemLinesPerCycle must be positive");
        MemTieringParams tier_params;
        tier_params.farRatio = cfg.farMemRatio;
        tier_params.smoothing = cfg.monitorSmoothing;
        if (cfg.memTiering == "static") {
            tiering = std::make_unique<StaticTieringPolicy>(
                mesh, tier_params);
        } else if (cfg.memTiering == "hotness") {
            tiering = std::make_unique<HotnessTieringPolicy>(
                mesh, tier_params);
        } else {
            fatal("unknown mem tiering policy '%s' (expected static "
                  "or hotness)", cfg.memTiering.c_str());
        }
        memPlacement->attachTiering(tiering.get());
    }

    const int num_banks = mesh.numTiles() * cfg.banksPerTile;
    cdcs_assert(mix.numThreads() <= mesh.numTiles(),
                "mix has more threads than cores");
    // The runtime's placement cost model mirrors cfg.noc's hop timing
    // (RuntimeInput::hopCycles); the mesh the NocModel answers latency
    // queries from must agree, or placement would price a different
    // network than the access path pays.
    cdcs_assert(mesh.config().routerCycles == cfg.noc.routerCycles &&
                    mesh.config().linkCycles == cfg.noc.linkCycles,
                "mesh NoC timing diverged from SystemConfig.noc");
    // The EpochController reads the oracle name; an unknown one must
    // fail here, not silently run the contention-priced arm.
    if (cfg.placementCost != "noc" && cfg.placementCost != "zero-load") {
        fatal("unknown placement cost oracle '%s' (expected noc or "
              "zero-load)", cfg.placementCost.c_str());
    }

    banks.reserve(num_banks);
    for (int b = 0; b < num_banks; b++) {
        banks.emplace_back(cfg.bankLines, cfg.bankWays,
                           mix64(cfg.seed ^ (0xBA2B + b)));
    }

    // Initial thread scheduling.
    std::vector<ProcId> thread_proc;
    for (ThreadId t = 0; t < mix.numThreads(); t++)
        thread_proc.push_back(mix.thread(t).proc);
    if (spec.sched == InitialSched::Random) {
        Rng sched_rng(mix64(cfg.seed ^ 0x5E5E));
        initialPlacement = randomSchedule(mix.numThreads(),
                                          mesh.numTiles(), sched_rng);
    } else {
        initialPlacement = clusteredSchedule(thread_proc,
                                             mesh.numTiles());
    }

    // Policy + runtime.
    switch (spec.kind) {
      case SchemeKind::SNuca:
        policy = std::make_unique<SNucaPolicy>(num_banks);
        break;
      case SchemeKind::RNuca:
        policy = std::make_unique<RNucaPolicy>(&mesh,
                                               cfg.banksPerTile);
        break;
      case SchemeKind::Partitioned: {
        switch (spec.placer) {
          case PlacerKind::Heuristic:
            runtime = std::make_unique<CdcsRuntime>(spec.cdcsOpts);
            break;
          case PlacerKind::Annealed:
            runtime = std::make_unique<AnnealingRuntime>(
                spec.cdcsOpts, spec.saIterations, cfg.seed ^ 0x5A5A);
            break;
          case PlacerKind::Bisection:
            runtime = std::make_unique<BisectRuntime>(spec.cdcsOpts);
            break;
        }
        std::vector<ThreadVcWiring> wiring;
        for (ThreadId t = 0; t < mix.numThreads(); t++) {
            const ThreadCtx &thr = mix.thread(t);
            wiring.push_back({thr.privateVc, thr.processVc,
                              thr.globalVc});
        }
        PartitionedNucaConfig move_cfg = cfg.moveCfg;
        move_cfg.moves = spec.moves;
        policy = std::make_unique<PartitionedNucaPolicy>(
            &mesh, cfg.banksPerTile, cfg.bankLines,
            static_cast<std::uint32_t>(cfg.bankLines / cfg.bankWays),
            std::move(wiring), mix.numVcs(), runtime.get(), move_cfg);
        break;
      }
    }

    // Monitors (partitioned schemes only).
    if (policy->wantsMonitors()) {
        for (int d = 0; d < mix.numVcs(); d++) {
            if (spec.monitor == MonitorKind::Gmon) {
                monitors.push_back(std::make_unique<Gmon>(
                    spec.monitorWays, cfg.llcLines(), spec.monitorSets,
                    spec.monitorSampleShift,
                    mix64(cfg.seed ^ (0x60D + d))));
            } else {
                monitors.push_back(std::make_unique<Umon>(
                    spec.monitorWays, cfg.llcLines(), spec.monitorSets,
                    mix64(cfg.seed ^ (0x60D + d))));
            }
        }
    }
}

} // namespace cdcs
