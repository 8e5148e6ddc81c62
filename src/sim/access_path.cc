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

} // namespace

AccessPath::AccessPath(const SystemConfig &config, Platform &plat,
                       WorkloadMix &workload,
                       std::vector<TileId> &thread_core,
                       RunStats &run_stats)
    : cfg(config), platform(plat), mix(workload),
      threadCore(thread_core), stats(run_stats)
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
        0.95, (static_cast<double>(chunkMisses) / dt) /
            cfg.memLinesPerCycle);
    queueDelay = memQueueWait(rho, cfg.memChannels,
                              cfg.memLinesPerCycle);
    if (cfg.hasFarTier()) {
        const double far_rho = std::min(
            0.95, (static_cast<double>(chunkFarMisses) / dt) /
                cfg.farMemLinesPerCycle);
        farQueueDelay = memQueueWait(far_rho, cfg.farMemChannels,
                                     cfg.farMemLinesPerCycle);
    }
}

MemPlacement
AccessPath::memPlaceFor(TileId core, LineAddr line)
{
    return platform.memPlacement->placementFor(core, line);
}

void
AccessPath::noteMemAccess(int ctrl)
{
    // Lazily sized: the stats object is reset wholesale at the
    // warmup boundary, which empties the vector.
    if (stats.memCtrlAccesses.size() <=
        static_cast<std::size_t>(ctrl)) {
        stats.memCtrlAccesses.resize(
            static_cast<std::size_t>(platform.mesh.numMemCtrls()), 0);
    }
    stats.memCtrlAccesses[static_cast<std::size_t>(ctrl)]++;
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

    stats.llcAccesses++;
    BankAccessResult fill_res;
    bool filled = false;
    if (banks[mr.bank].probeHit(sample.line, tag, core)) {
        stats.llcHits++;
    } else if (mr.oldBank != invalidTile &&
               policy.demandMovesActive()) {
        // Demand move (Fig. 10): chase the line in its old bank.
        const TileId old_tile =
            static_cast<TileId>(mr.oldBank / cfg.banksPerTile);
        const double probe_lat = noc.latency(bank_tile, old_tile, ctrl);
        lat += probe_lat + cfg.bankLatency;
        onchip += probe_lat;
        noc.addTraffic(TrafficClass::Other, bank_tile, old_tile,
                       ctrl);
        stats.moveProbes++;
        CacheLine moved;
        if (banks[mr.oldBank].extractForMove(sample.line, moved)) {
            // Old bank hit: line + coherence state move to the new
            // bank (Fig. 10a) — the data leg travels old -> new.
            const double move_lat =
                noc.latency(old_tile, bank_tile, data);
            lat += move_lat;
            onchip += move_lat;
            noc.addTraffic(TrafficClass::Other, old_tile, bank_tile,
                           data);
            fill_res = banks[mr.bank].installMoved(moved, tag);
            filled = true;
            stats.demandMoves++;
        } else {
            // Old bank miss: forward to memory; the response fills
            // the new home (Fig. 10b).
            const MemPlacement mp = memPlaceFor(core, sample.line);
            const int mc = mp.ctrl;
            const bool far = mp.tier == MemTier::Far;
            const double mem_leg = far
                ? noc.farMemLatency(old_tile, mc, ctrl) +
                    cfg.farMemLatency + farQueueDelay +
                    noc.farMemResponseLatency(mc, bank_tile, data)
                : noc.memLatency(old_tile, mc, ctrl) + cfg.memLatency +
                    queueDelay +
                    noc.memResponseLatency(mc, bank_tile, data);
            lat += mem_leg;
            offchip += mem_leg;
            if (far) {
                noc.addFarMemTraffic(TrafficClass::LLCToMem,
                                     old_tile, mc, ctrl);
                noc.addFarMemResponse(TrafficClass::LLCToMem, mc,
                                      bank_tile, data);
                stats.farMemAccesses++;
                stats.farOffChipLatSum += mem_leg;
                StatRegistry::add(kMemFarAccesses);
                chunkFarMisses++;
            } else {
                noc.addMemTraffic(TrafficClass::LLCToMem, old_tile,
                                  mc, ctrl);
                noc.addMemResponse(TrafficClass::LLCToMem, mc,
                                   bank_tile, data);
                chunkMisses++;
            }
            stats.memAccesses++;
            noteMemAccess(mc);
            fill_res = banks[mr.bank].fill(sample.line, tag, core);
            filled = true;
        }
    } else {
        const MemPlacement mp = memPlaceFor(core, sample.line);
        const int mc = mp.ctrl;
        const bool far = mp.tier == MemTier::Far;
        const double mem_leg = far
            ? noc.farMemLatency(bank_tile, mc, ctrl) +
                cfg.farMemLatency + farQueueDelay +
                noc.farMemResponseLatency(mc, bank_tile, data)
            : noc.memLatency(bank_tile, mc, ctrl) + cfg.memLatency +
                queueDelay + noc.memResponseLatency(mc, bank_tile, data);
        lat += mem_leg;
        offchip += mem_leg;
        if (far) {
            noc.addFarMemTraffic(TrafficClass::LLCToMem, bank_tile,
                                 mc, ctrl);
            noc.addFarMemResponse(TrafficClass::LLCToMem, mc,
                                  bank_tile, data);
            stats.farMemAccesses++;
            stats.farOffChipLatSum += mem_leg;
            StatRegistry::add(kMemFarAccesses);
            chunkFarMisses++;
        } else {
            noc.addMemTraffic(TrafficClass::LLCToMem, bank_tile, mc,
                              ctrl);
            noc.addMemResponse(TrafficClass::LLCToMem, mc, bank_tile,
                               data);
            chunkMisses++;
        }
        stats.memAccesses++;
        noteMemAccess(mc);
        fill_res = banks[mr.bank].fill(sample.line, tag, core);
        filled = true;
    }

    if (filled && fill_res.evicted && fill_res.evictedSharers != 0) {
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

    stats.onChipLatSum += onchip;
    stats.offChipLatSum += offchip;
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
