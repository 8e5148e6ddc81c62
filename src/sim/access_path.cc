#include "sim/access_path.hh"

#include <algorithm>
#include <bit>

#include "mem/mem_queue.hh"
#include "obs/stat_registry.hh"

namespace cdcs
{

namespace
{

/// Memory accesses served by the far tier.
const StatId kMemFarAccesses =
    StatRegistry::counter("mem.far_accesses");
/// Chunks whose near/far memory-queue utilization hit the M/D/m
/// model's 0.95 clamp: the queue delay charged there is a floor.
const StatId kMemQueueClampedChunks =
    StatRegistry::counter("mem.queue_clamped_chunks");
const StatId kMemFarQueueClampedChunks =
    StatRegistry::counter("mem.far_queue_clamped_chunks");
/// Utilization clamp of both memory queues.
constexpr double kMemMaxUtil = 0.95;

} // namespace

AccessPath::AccessPath(const SystemConfig &config, Platform &plat,
                       WorkloadMix &workload,
                       std::vector<TileId> &thread_core,
                       RunResult &run_result)
    : cfg(config), platform(plat), mix(workload),
      threadCore(thread_core), result(run_result)
{
    clocks.reserve(mix.numThreads());
    for (ThreadId t = 0; t < mix.numThreads(); t++) {
        const ThreadCtx &thr = mix.thread(t);
        clocks.emplace_back(thr.cpiExe, thr.mlp);
    }
    accessMatrix.assign(mix.numThreads(),
                        std::vector<double>(mix.numVcs(), 0.0));
}

double
AccessPath::meanActiveCycles() const
{
    // Departed tenants' clocks freeze at their departure value;
    // averaging them in would drag the epoch-elapsed estimates the
    // NoC and memory models derive from this mean. With every thread
    // active the sum runs over the same clocks in the same order, so
    // the static-traffic arithmetic is unchanged bit for bit.
    double sum = 0.0;
    int active = 0;
    for (std::size_t t = 0; t < clocks.size(); t++) {
        if (!mix.threadActive(static_cast<ThreadId>(t)))
            continue;
        sum += clocks[t].cycleCount();
        active++;
    }
    return active > 0 ? sum / static_cast<double>(active) : 0.0;
}

void
AccessPath::beginChunk()
{
    chunkMisses = 0;
    chunkFarMisses = 0;
}

void
AccessPath::endChunk(double before, double after)
{
    if (!cfg.modelMemBandwidth)
        return;
    const double dt = std::max(after - before, 1.0);
    const double rho = std::min(
        kMemMaxUtil, (static_cast<double>(chunkMisses) / dt) /
            cfg.memLinesPerCycle);
    if (rho >= kMemMaxUtil)
        StatRegistry::add(kMemQueueClampedChunks);
    queueDelay = memQueueWait(rho, cfg.memChannels,
                              cfg.memLinesPerCycle);
    if (cfg.hasFarTier()) {
        const double far_rho = std::min(
            kMemMaxUtil, (static_cast<double>(chunkFarMisses) / dt) /
                cfg.farMemLinesPerCycle);
        if (far_rho >= kMemMaxUtil)
            StatRegistry::add(kMemFarQueueClampedChunks);
        farQueueDelay = memQueueWait(far_rho, cfg.farMemChannels,
                                     cfg.farMemLinesPerCycle);
    }
}

double
AccessPath::memoryLeg(TileId core, LineAddr line, TileId from, TileId to)
{
    NocModel &noc = *platform.noc;
    const std::uint32_t ctrl = cfg.noc.ctrlFlits();
    const std::uint32_t data = cfg.noc.dataFlits();
    const MemPlacement mp =
        platform.memPlacement->placementFor(core, line);
    const int mc = mp.ctrl;
    double leg = 0.0;
    if (mp.tier == MemTier::Far) {
        leg = noc.farMemLatency(from, mc, ctrl) + cfg.farMemLatency +
            farQueueDelay + noc.farMemResponseLatency(mc, to, data);
        noc.addFarMemTraffic(TrafficClass::LLCToMem, from, mc, ctrl);
        noc.addFarMemResponse(TrafficClass::LLCToMem, mc, to, data);
        result.farMemAccesses++;
        result.farOffChipLatSum += leg;
        StatRegistry::add(kMemFarAccesses);
        chunkFarMisses++;
    } else {
        leg = noc.memLatency(from, mc, ctrl) + cfg.memLatency +
            queueDelay + noc.memResponseLatency(mc, to, data);
        noc.addMemTraffic(TrafficClass::LLCToMem, from, mc, ctrl);
        noc.addMemResponse(TrafficClass::LLCToMem, mc, to, data);
        chunkMisses++;
    }
    result.memAccesses++;
    // Lazily sized: the warmup boundary resets the result wholesale,
    // which empties the vector.
    auto &per_ctrl = result.memCtrlAccesses;
    if (per_ctrl.size() <= static_cast<std::size_t>(mc)) {
        per_ctrl.resize(
            static_cast<std::size_t>(platform.mesh.numMemCtrls()), 0);
    }
    per_ctrl[static_cast<std::size_t>(mc)]++;
    return leg;
}

void
AccessPath::issueAccess(ThreadId t)
{
    const Mesh &mesh = platform.mesh;
    NocModel &noc = *platform.noc;
    auto &banks = platform.banks;
    NucaPolicy &policy = *platform.policy;

    const ThreadCtx &thr = mix.thread(t);
    const AccessSample sample = mix.nextAccess(t);
    const TileId core = threadCore[t];
    accessMatrix[t][sample.vc] += 1.0;

    if (!platform.monitors.empty()) {
        platform.monitors[sample.vc]->access(sample.line);
        // Monitoring traffic: roughly one control message per 64
        // accesses to the VC's fixed monitor location (Sec. IV-I).
        if ((++monitorTrafficSampleCtr & 63) == 0) {
            const TileId mon_tile =
                static_cast<TileId>(sample.vc % mesh.numTiles());
            noc.addTraffic(TrafficClass::Other, core, mon_tile,
                           cfg.noc.ctrlFlits());
        }
    }

    const MapResult mr = policy.map(t, core, sample.vc, sample.line);
    const VcId tag = policy.partitionTag(sample.vc);
    const TileId bank_tile =
        static_cast<TileId>(mr.bank / cfg.banksPerTile);
    const std::uint32_t ctrl = cfg.noc.ctrlFlits();
    const std::uint32_t data = cfg.noc.dataFlits();

    // Request leg core -> bank, data response bank -> core: the NoC's
    // links are directed, so the two legs are charged (and priced)
    // separately. Zero-load latency and hop counts are symmetric, so
    // this only redistributes per-link load, never per-class totals.
    double lat = noc.latency(core, bank_tile, ctrl) + cfg.bankLatency +
        noc.latency(bank_tile, core, data);
    double onchip = lat - cfg.bankLatency;
    double offchip = 0.0;
    noc.addTraffic(TrafficClass::L2ToLLC, core, bank_tile, ctrl);
    noc.addTraffic(TrafficClass::L2ToLLC, bank_tile, core, data);

    result.llcAccesses++;
    BankAccessResult fill_res; // Stays empty on a hit.
    if (banks[mr.bank].probeHit(sample.line, tag, core)) {
        result.llcHits++;
    } else {
        // A miss fills the home bank from memory, requested by the home
        // bank itself, unless a demand move finds the line first.
        TileId mem_requester = bank_tile;
        bool moved = false;
        if (mr.oldBank != invalidTile && policy.demandMovesActive()) {
            // Demand move (Fig. 10): chase the line in its old bank.
            const TileId old_tile =
                static_cast<TileId>(mr.oldBank / cfg.banksPerTile);
            const double probe_lat =
                noc.latency(bank_tile, old_tile, ctrl);
            lat += probe_lat + cfg.bankLatency;
            onchip += probe_lat;
            noc.addTraffic(TrafficClass::Other, bank_tile, old_tile,
                           ctrl);
            result.moveProbes++;
            CacheLine moved_line;
            if (banks[mr.oldBank].extractForMove(sample.line,
                                                 moved_line)) {
                // Old bank hit: line + coherence state move to the new
                // bank (Fig. 10a) — the data leg travels old -> new.
                const double move_lat =
                    noc.latency(old_tile, bank_tile, data);
                lat += move_lat;
                onchip += move_lat;
                noc.addTraffic(TrafficClass::Other, old_tile, bank_tile,
                               data);
                fill_res = banks[mr.bank].installMoved(moved_line, tag);
                result.demandMoves++;
                moved = true;
            } else {
                // Old bank miss: it forwards the request to memory;
                // the response fills the new home (Fig. 10b).
                mem_requester = old_tile;
            }
        }
        if (!moved) {
            const double mem_leg =
                memoryLeg(core, sample.line, mem_requester, bank_tile);
            lat += mem_leg;
            offchip += mem_leg;
            fill_res = banks[mr.bank].fill(sample.line, tag, core);
        }
    }

    if (fill_res.evicted && fill_res.evictedSharers != 0) {
        // Invalidate L2 copies of the victim (in-cache directory).
        std::uint64_t mask = fill_res.evictedSharers;
        while (mask != 0) {
            const int sharer = std::countr_zero(mask);
            mask &= mask - 1;
            if (sharer < mesh.numTiles()) {
                noc.addTraffic(TrafficClass::Other, bank_tile,
                               static_cast<TileId>(sharer), ctrl);
            }
        }
    }

    if (mr.invalidatePage) {
        // R-NUCA reclassification: flush the page from its old bank.
        int flushed = 0;
        for (std::uint32_t i = 0; i < linesPerPage; i++) {
            if (banks[mr.invalidateBank].invalidateLine(
                    mr.invalidatePageBase + i)) {
                flushed++;
            }
        }
        if (flushed > 0) {
            const TileId old_tile = static_cast<TileId>(
                mr.invalidateBank / cfg.banksPerTile);
            // Flushes write back via the page-interleaved home
            // controller, even under first-touch placement (matches
            // the legacy accounting).
            noc.addMemTraffic(TrafficClass::Other, old_tile,
                              mesh.memCtrlOf(sample.line),
                              data * flushed);
        }
    }

    result.onChipLatSum += onchip;
    result.offChipLatSum += offchip;
    clocks[t].addAccess(thr.instrPerAccess, lat);

    if (cfg.traceIpc) {
        const auto bin = static_cast<std::size_t>(
            clocks[t].cycleCount() / cfg.traceBinCycles);
        if (bin >= ipcBins.size())
            ipcBins.resize(bin + 1, 0.0);
        ipcBins[bin] += thr.instrPerAccess;
    }
}

} // namespace cdcs
