#include "sim/epoch_controller.hh"

#include <algorithm>
#include <string>

#include "obs/phase_timer.hh"
#include "obs/trace.hh"

namespace cdcs
{

namespace
{

// Reconfiguration-pipeline stats (registered at static init so any
// `stats=` filter can select them before the first run starts).
const StatId kRuntimeReconfigs =
    StatRegistry::counter("runtime.reconfigs");
const StatId kRuntimePlaceMoves =
    StatRegistry::counter("runtime.place_moves");
const StatId kRuntimeMovedLines =
    StatRegistry::counter("runtime.moved_lines");

} // anonymous namespace

EpochController::EpochController(const SystemConfig &config,
                                 Platform &plat, AccessPath &access,
                                 WorkloadMix &workload,
                                 std::vector<TileId> &thread_core,
                                 RunResult &run_result)
    : cfg(config), platform(plat), path(access), mix(workload),
      threadCore(thread_core), result(run_result)
{
    instrOffset.assign(mix.numThreads(), 0.0);
    cycleOffset.assign(mix.numThreads(), 0.0);
    if (cfg.statsEnabled()) {
        statSel = StatRegistry::select(cfg.statsFilter);
        statNames.reserve(statSel.size());
        for (StatId id : statSel)
            statNames.push_back(StatRegistry::name(id));
    }
}

RuntimeInput
EpochController::gatherRuntimeInput()
{
    RuntimeInput in;
    in.mesh = &platform.mesh;
    in.numBanks = platform.numBanks();
    in.banksPerTile = cfg.banksPerTile;
    in.bankLines = cfg.bankLines;
    in.allocGranule =
        static_cast<std::uint64_t>(cfg.allocGranuleLines);
    if (!platform.monitors.empty()) {
        in.missCurves.reserve(platform.monitors.size());
        for (const auto &mon : platform.monitors)
            in.missCurves.push_back(mon->missCurve());
    }
    in.access = path.accessMatrix;

    // Blend with the EWMA of previous epochs: the runtime's inputs
    // are sampled and noisy, and placement stability depends on them
    // converging for stationary workloads.
    const double alpha = cfg.monitorSmoothing;
    if (alpha < 1.0) {
        if (smoothedAccess.empty()) {
            smoothedAccess = in.access;
            smoothedCurves = in.missCurves;
        } else {
            for (std::size_t t = 0; t < in.access.size(); t++) {
                for (std::size_t d = 0; d < in.access[t].size(); d++) {
                    smoothedAccess[t][d] = alpha * in.access[t][d] +
                        (1.0 - alpha) * smoothedAccess[t][d];
                }
            }
            for (std::size_t d = 0; d < in.missCurves.size(); d++) {
                // Same monitor geometry each epoch: identical x grid.
                Curve blended;
                const auto &cur = in.missCurves[d].samples();
                const auto &old_curve = smoothedCurves[d].samples();
                for (std::size_t i = 0; i < cur.size(); i++) {
                    const double prev_y = i < old_curve.size()
                        ? old_curve[i].y : cur[i].y;
                    blended.addPoint(cur[i].x,
                                     alpha * cur[i].y +
                                         (1.0 - alpha) * prev_y);
                }
                smoothedCurves[d] = blended;
            }
            in.access = smoothedAccess;
            in.missCurves = smoothedCurves;
        }
    }
    in.threadCore = threadCore;
    in.hopCycles = static_cast<double>(cfg.noc.routerCycles +
                                       cfg.noc.linkCycles);
    in.bankAccessCycles = static_cast<double>(cfg.bankLatency);
    in.memAccessCycles = static_cast<double>(cfg.memLatency);

    // Placement cost oracle: snapshot the network model's current
    // per-route waits, EWMA-damped like the other runtime inputs
    // (placement feeds back into the waits it is priced on). The
    // wait snapshot is damped at half the monitor smoothing: with
    // request/response legs split over directed links each direction
    // carries half the flits, so per-epoch utilization estimates are
    // noisier than the monitor inputs, and the thread- and
    // data-placement steps react to the same signal — measured, the
    // loop oscillates at the monitor alpha and converges at half.
    // placementCost=zero-load pins the flat hop arithmetic instead —
    // the contention studies' control arm.
    placementCost = cfg.placementCost == "zero-load"
        ? PlacementCostModel(platform.mesh, in.hopCycles)
        : PlacementCostModel::fromNoc(*platform.noc, in.hopCycles,
                                      &placementCost,
                                      0.5 * cfg.monitorSmoothing);
    in.costModel = &placementCost;
    return in;
}

void
EpochController::applyDirective(const EpochDirective &directive)
{
    if (!directive.reconfigured)
        return;
    StatRegistry::add(kRuntimeReconfigs);
    StatRegistry::add(kRuntimeMovedLines,
                      directive.movedLines +
                          directive.invalidatedLines);
    result.reconfigs++;
    timeSums.allocUs += directive.times.allocUs;
    timeSums.threadPlaceUs += directive.times.threadPlaceUs;
    timeSums.dataPlaceUs += directive.times.dataPlaceUs;
    result.instantMoved += directive.movedLines;
    result.bulkInvalidated += directive.invalidatedLines;
    lastMovedLines = directive.movedLines + directive.invalidatedLines;
    if (!directive.newThreadCore.empty()) {
        const int moves_before = lastPlacementMoves;
        for (std::size_t t = 0;
             t < directive.newThreadCore.size() &&
             t < threadCore.size();
             t++) {
            if (directive.newThreadCore[t] != threadCore[t])
                lastPlacementMoves++;
        }
        StatRegistry::add(
            kRuntimePlaceMoves,
            static_cast<std::uint64_t>(lastPlacementMoves -
                                       moves_before));
        threadCore = directive.newThreadCore;
    }
    if (directive.pauseCycles > 0) {
        for (ThreadId t = 0;
             t < static_cast<ThreadId>(path.clocks.size()); t++) {
            // Departed tenants' frozen clocks don't pay reconfig
            // pauses (all threads active on the static path).
            if (!mix.threadActive(t))
                continue;
            path.clocks[t].addPause(
                static_cast<double>(directive.pauseCycles));
        }
        result.pausedCycles += directive.pauseCycles;
    }
}

int
EpochController::applyChurn(int epoch)
{
    TrafficSchedule *traffic = mix.traffic();
    if (traffic == nullptr)
        return 0;
    std::vector<int> active_ids;
    for (ThreadId t = 0; t < mix.numThreads(); t++) {
        if (mix.threadActive(t))
            active_ids.push_back(t);
    }
    const ChurnActions acts = traffic->actionsAt(epoch, active_ids);
    for (int t : acts.depart) {
        mix.setThreadActive(static_cast<ThreadId>(t), false);
        // Free the departing tenant's demand: its access row zeroes
        // out, so the next reconfiguration sees no footprint behind
        // its VCs and the allocator reclaims their capacity.
        std::fill(path.accessMatrix[static_cast<std::size_t>(t)]
                      .begin(),
                  path.accessMatrix[static_cast<std::size_t>(t)]
                      .end(),
                  0.0);
    }
    for (int t : acts.arrive)
        mix.setThreadActive(static_cast<ThreadId>(t), true);
    const int delta = static_cast<int>(acts.arrive.size()) -
        static_cast<int>(acts.depart.size());
    if (delta != 0) {
        // Drop the EWMA history: blending the new tenant set's
        // monitors with the old one's would damp exactly the signal
        // the post-churn reconfigurations need. Arrivals need no
        // explicit spin-up — their per-VC monitors exist for the
        // whole run and fill with counts from the next epoch on,
        // entering the next placement round automatically.
        smoothedCurves.clear();
        smoothedAccess.clear();
    }
    return delta;
}

void
EpochController::runEpochs()
{
    const int num_threads = mix.numThreads();
    TrafficSchedule *traffic = mix.traffic();
    // The epoch trace is recorded for dynamic traffic (as always) and
    // whenever a `stats=` selection wants per-epoch registry deltas.
    const bool stats_on = !statSel.empty();
    const bool record = traffic != nullptr || stats_on;
    if (stats_on)
        statBase = StatRegistry::localSnapshot();
    for (int epoch = 0; epoch < cfg.epochs; epoch++) {
        if (Tracer::enabled())
            Tracer::instant("epoch " + std::to_string(epoch));
        int churn_delta = 0;
        if (traffic != nullptr) {
            churn_delta = applyChurn(epoch);
            traffic->epochBoundary(epoch);
        }
        if (record) {
            lastPlacementMoves = 0;
            lastMovedLines = 0;
            epochStartInstr.resize(
                static_cast<std::size_t>(num_threads));
            epochStartCycles.resize(
                static_cast<std::size_t>(num_threads));
            for (ThreadId t = 0; t < num_threads; t++) {
                epochStartInstr[t] = path.clocks[t].instructions();
                epochStartCycles[t] = path.clocks[t].cycleCount();
            }
        }
        if (epoch == cfg.warmupEpochs) {
            // Warmup boundary: reset measured statistics, keep all
            // microarchitectural state warm (including the NoC's
            // contention estimate).
            result = RunResult{};
            timeSums = RuntimeStepTimes{};
            platform.noc->clearTraffic();
            for (int t = 0; t < num_threads; t++) {
                instrOffset[t] = path.clocks[t].instructions();
                cycleOffset[t] = path.clocks[t].cycleCount();
            }
        }

        std::uint64_t issued = 0;
        {
            // Timing only: the epoch's access loop.
            PhaseTimer access_timer(Phase::Access);
            while (issued < cfg.accessesPerThreadEpoch) {
                const auto n = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(
                        cfg.chunkAccesses,
                        cfg.accessesPerThreadEpoch - issued));
                const double before = path.meanActiveCycles();
                path.beginChunk();
                for (ThreadId t = 0; t < num_threads; t++) {
                    if (traffic != nullptr && !mix.threadActive(t))
                        continue;
                    for (std::uint32_t i = 0; i < n; i++)
                        path.issueAccess(t);
                }
                issued += n;
                const double after = path.meanActiveCycles();
                path.endChunk(before, after);

                const double elapsed =
                    std::max(0.0, after - reconfigStartMean);
                result.bgInvalidated += platform.policy->advanceWalk(
                    static_cast<Cycles>(elapsed), platform.banks);
            }
        }

        const double epoch_mean = path.meanActiveCycles();
        // Clamped: churn can move the active-thread mean backwards
        // (the mean is over active threads only).
        const double noc_elapsed =
            std::max(0.0, epoch_mean - nocEpochStartMean);
        if (epoch + 1 == cfg.epochs) {
            // No refresh after the last epoch, but its link loads
            // still belong in its metrics-trace row.
            platform.noc->finalEpoch(noc_elapsed);
        } else {
            // Timing only: the epoch-boundary runtime (NoC refresh,
            // monitor gathering, the CDCS reconfiguration solve).
            PhaseTimer reconfig_timer(Phase::Reconfig);
            // Refresh the network model's contention state from this
            // epoch's measured link loads (no-op for zero-load),
            // then let the memory placement policy rebalance pages
            // on the fresh waits (no-op for the static policies).
            platform.noc->epochUpdate(noc_elapsed);
            platform.memPlacement->epochUpdate(*platform.noc,
                                               noc_elapsed);
            // Tier migration rides the same boundary, right after
            // the controller rebalance, so promotions see the page
            // pins the placement policy just settled on; each move's
            // flits are charged through both tiers' attach links.
            if (platform.tiering != nullptr) {
                platform.tiering->epochUpdate(*platform.noc,
                                              noc_elapsed);
            }
            nocEpochStartMean = epoch_mean;

            RuntimeInput input = gatherRuntimeInput();
            const EpochDirective directive =
                platform.policy->endEpoch(input, platform.banks);
            applyDirective(directive);
            for (auto &mon : platform.monitors)
                mon->clearCounters();
            for (auto &row : path.accessMatrix)
                std::fill(row.begin(), row.end(), 0.0);
            reconfigStartMean = path.meanActiveCycles();
        }

        if (record) {
            EpochRecord rec;
            rec.epoch = epoch;
            rec.activeThreads = mix.numActiveThreads();
            rec.churnDelta = churn_delta;
            double d_instr = 0.0, d_cycles = 0.0;
            int n_active = 0;
            for (ThreadId t = 0; t < num_threads; t++) {
                if (!mix.threadActive(t))
                    continue;
                d_instr +=
                    path.clocks[t].instructions() - epochStartInstr[t];
                d_cycles +=
                    path.clocks[t].cycleCount() - epochStartCycles[t];
                n_active++;
            }
            if (n_active > 0 && d_cycles > 0.0)
                rec.aggIpc = d_instr / (d_cycles / n_active);
            rec.placementMoves = lastPlacementMoves;
            rec.movedLines = lastMovedLines;
            if (stats_on &&
                epoch % cfg.statsEvery == cfg.statsEvery - 1) {
                // Deltas of this thread's shard since the previous
                // sampled epoch: everything this run bumped, nothing
                // a concurrently-simulating worker did.
                const auto snap = StatRegistry::localSnapshot();
                rec.stats.reserve(statSel.size());
                for (StatId id : statSel)
                    rec.stats.push_back(snap[id] - statBase[id]);
                statBase = snap;
            }
            trace.push_back(rec);
        }
    }
}

void
EpochController::assemble()
{
    const int num_threads = mix.numThreads();
    RunResult &res = result;
    res.threadInstrs.resize(num_threads);
    res.threadCycles.resize(num_threads);
    res.threadIpc.resize(num_threads);
    for (int t = 0; t < num_threads; t++) {
        res.threadInstrs[t] =
            path.clocks[t].instructions() - instrOffset[t];
        res.threadCycles[t] =
            path.clocks[t].cycleCount() - cycleOffset[t];
        res.threadIpc[t] = res.threadCycles[t] > 0.0
            ? res.threadInstrs[t] / res.threadCycles[t] : 0.0;
        res.totalInstrs += res.threadInstrs[t];
        res.wallCycles = std::max(res.wallCycles, res.threadCycles[t]);
    }
    for (ProcId p = 0; p < mix.numProcesses(); p++) {
        const ProcessCtx &proc = mix.process(p);
        double instrs = 0.0, max_cycles = 0.0;
        for (ThreadId t : proc.threads) {
            instrs += res.threadInstrs[t];
            max_cycles = std::max(max_cycles, res.threadCycles[t]);
        }
        res.procThroughput.push_back(
            max_cycles > 0.0 ? instrs / max_cycles : 0.0);
    }

    if (res.reconfigs > 0) {
        res.avgTimes.allocUs = timeSums.allocUs / res.reconfigs;
        res.avgTimes.threadPlaceUs =
            timeSums.threadPlaceUs / res.reconfigs;
        res.avgTimes.dataPlaceUs = timeSums.dataPlaceUs / res.reconfigs;
    }
    for (std::size_t c = 0; c < res.trafficFlitHops.size(); c++) {
        res.trafficFlitHops[c] =
            platform.noc->trafficFlitHops(static_cast<TrafficClass>(c));
    }
    res.nocLinks = platform.noc->linkStats();
    res.memMigratedPages = platform.memPlacement->migratedPages();
    if (platform.tiering != nullptr) {
        res.memMigratedPages += platform.tiering->migratedPages();
        res.tierPromotions = platform.tiering->promotions();
        res.tierDemotions = platform.tiering->demotions();
        res.farResidentPages = platform.tiering->farResidentPages();
        res.tieredPages = platform.tiering->trackedPages();
    }

    // Static energy accrues over the mean per-thread runtime: in the
    // fixed-work methodology threads retire their work at different
    // times and finished cores clock-gate.
    double mean_cycles = 0.0;
    for (double c : res.threadCycles)
        mean_cycles += c;
    if (!res.threadCycles.empty())
        mean_cycles /= static_cast<double>(res.threadCycles.size());
    const EnergyModel energy_model;
    res.energy = energy_model.evaluate(
        res.totalInstrs,
        static_cast<double>(res.llcAccesses + res.moveProbes),
        static_cast<double>(platform.noc->totalFlitHops()),
        static_cast<double>(res.memAccesses), mean_cycles);

    res.memCtrlAccesses.resize(
        static_cast<std::size_t>(platform.mesh.numMemCtrls()), 0);
    res.epochTrace = trace;
    res.statNames = statNames;

    if (cfg.traceIpc) {
        res.ipcBinCycles = cfg.traceBinCycles;
        res.ipcTrace.reserve(path.ipcBins.size());
        for (double instrs : path.ipcBins)
            res.ipcTrace.push_back(instrs / cfg.traceBinCycles);
    }
}

} // namespace cdcs
