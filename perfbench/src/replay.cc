#include "replay.hh"

#include <algorithm>
#include <bit>

#include "mem/mem_queue.hh"
#include "runtime/placement_cost.hh"
#include "sim/core_model.hh"
#include "sim/platform.hh"

namespace perfbench
{

using namespace cdcs;

namespace
{

/** Accesses per replay chunk: one span per layer per chunk. */
constexpr std::size_t kReplayChunk = 2048;

enum class Outcome : std::uint8_t
{
    Hit,        ///< probeHit hit.
    PendingHit, ///< Missed earlier in this chunk; hits once filled.
    Moved,      ///< Demand move from the old bank.
    Mem         ///< Served by memory and filled.
};

struct Access
{
    ThreadId thread = 0;
    TileId core = 0;
    AccessSample sample{};
    MapResult map;
    VcId tag = 0;
    Outcome outcome = Outcome::Hit;
    bool moveProbe = false; ///< Missed and chased in the old bank.
    MemPlacement place;
    std::uint64_t evictedSharers = 0;
    std::uint32_t flushed = 0;
    double latency = 0.0;
};

/**
 * (bank, line) keys missed so far in the current chunk: a flat
 * linear-probing set cleared by remembering the slots it used.
 */
class PendingSet
{
  public:
    explicit PendingSet(std::size_t capacity)
        : slots(std::bit_ceil(capacity * 2), 0)
    {
        used.reserve(capacity);
    }

    /** Insert; false when the key was already present. */
    bool
    insert(std::uint64_t key)
    {
        const std::uint64_t stored = key + 1; // 0 marks an empty slot
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
            if (slots[i] == stored)
                return false;
            if (slots[i] == 0) {
                slots[i] = stored;
                used.push_back(i);
                return true;
            }
        }
    }

    void
    clear()
    {
        for (std::size_t i : used)
            slots[i] = 0;
        used.clear();
    }

  private:
    std::vector<std::uint64_t> slots;
    std::vector<std::size_t> used;
};

double
meanCycles(const std::vector<CoreClock> &clocks)
{
    double sum = 0.0;
    for (const CoreClock &c : clocks)
        sum += c.cycleCount();
    return clocks.empty() ? 0.0 : sum / static_cast<double>(clocks.size());
}

} // namespace

void
ReplayCounts::add(const ReplayCounts &o)
{
    accesses += o.accesses;
    measuredAccesses += o.measuredAccesses;
    monitorCalls += o.monitorCalls;
    probes += o.probes;
    hits += o.hits;
    fills += o.fills;
    evictions += o.evictions;
    demandMoves += o.demandMoves;
    pageFlushes += o.pageFlushes;
    memAccesses += o.memAccesses;
    farAccesses += o.farAccesses;
    netQueries += o.netQueries;
    netAccounts += o.netAccounts;
    measuredFlitHops += o.measuredFlitHops;
    epochUpdates += o.epochUpdates;
    migrations += o.migrations;
}

WorkloadMix
buildJobMix(const SystemConfig &cfg, const MixSpec &spec)
{
    WorkloadMix mix = buildMix(spec);
    if (cfg.dynamicTraffic()) {
        TrafficConfig traffic;
        traffic.skewAlpha = cfg.skewAlpha;
        traffic.skewFraction = cfg.skewFraction;
        traffic.skewLines = cfg.skewLines;
        traffic.skewHotLines = cfg.skewHotLines;
        traffic.skewPageHot = cfg.skewPageHot;
        traffic.skewDriftEpochs = cfg.skewDriftEpochs;
        traffic.skewDriftFraction = cfg.skewDriftFraction;
        traffic.churn = cfg.churn;
        traffic.seed = cfg.seed;
        mix.attachTraffic(traffic);
    }
    return mix;
}

double
replayJob(const SystemConfig &cfg, const SchemeSpec &scheme,
          const MixSpec &mix_spec, SpanRecorder &rec,
          ReplayCounts &counts, RuntimeSamples &runtime)
{
    WorkloadMix mix = buildJobMix(cfg, mix_spec);
    Platform plat(cfg, scheme, mix);
    const Mesh &mesh = plat.mesh;
    NocModel &noc = *plat.noc;
    auto &banks = plat.banks;
    NucaPolicy &policy = *plat.policy;
    MemPlacementPolicy &placement = *plat.memPlacement;

    const int num_threads = mix.numThreads();
    std::vector<TileId> thread_core = plat.initialPlacement;
    std::vector<CoreClock> clocks;
    for (ThreadId t = 0; t < num_threads; t++)
        clocks.emplace_back(mix.thread(t).cpiExe, mix.thread(t).mlp);
    std::vector<std::vector<double>> access_matrix(
        num_threads, std::vector<double>(mix.numVcs(), 0.0));
    TrafficSchedule *traffic = mix.traffic();

    const std::uint32_t ctrl = cfg.noc.ctrlFlits();
    const std::uint32_t data = cfg.noc.dataFlits();
    const int bpt = cfg.banksPerTile;
    const double hop_cycles =
        static_cast<double>(cfg.noc.routerCycles + cfg.noc.linkCycles);
    double queue_delay = 0.0;
    double far_queue_delay = 0.0;
    std::uint64_t monitor_ctr = 0;
    double reconfig_start = 0.0;
    double noc_epoch_start = 0.0;
    PlacementCostModel cost;
    std::vector<Access> acc(kReplayChunk);
    PendingSet pending(kReplayChunk);
    ReplayCounts c;

    const auto start = SpanRecorder::Clock::now();
    for (int epoch = 0; epoch < cfg.epochs; epoch++) {
        if (traffic != nullptr)
            traffic->epochBoundary(epoch);
        if (epoch == cfg.warmupEpochs)
            noc.clearTraffic();
        const bool measured = epoch >= cfg.warmupEpochs;

        std::uint64_t issued = 0;
        while (issued < cfg.accessesPerThreadEpoch) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(cfg.chunkAccesses,
                                        cfg.accessesPerThreadEpoch -
                                            issued));
            const double before = meanCycles(clocks);
            std::uint64_t chunk_misses = 0;
            std::uint64_t chunk_far = 0;
            const std::size_t total = n * static_cast<std::size_t>(
                num_threads);
            // Thread-major order within the simulator's chunk, as in
            // EpochController::runEpochs, cut into replay chunks.
            for (std::size_t base = 0; base < total;
                 base += kReplayChunk) {
                const std::size_t m = std::min(kReplayChunk, total - base);
                {
                    LayerSpan span(rec, Layer::Workload);
                    for (std::size_t i = 0; i < m; i++) {
                        Access &a = acc[i];
                        a.thread = static_cast<ThreadId>((base + i) / n);
                        a.sample = mix.nextAccess(a.thread);
                    }
                }
                if (!plat.monitors.empty()) {
                    LayerSpan span(rec, Layer::Monitor);
                    for (std::size_t i = 0; i < m; i++) {
                        plat.monitors[acc[i].sample.vc]->access(
                            acc[i].sample.line);
                    }
                    c.monitorCalls += m;
                }
                {
                    LayerSpan span(rec, Layer::NucaMap);
                    for (std::size_t i = 0; i < m; i++) {
                        Access &a = acc[i];
                        a.core = thread_core[a.thread];
                        a.map = policy.map(a.thread, a.core, a.sample.vc,
                                           a.sample.line);
                        a.tag = policy.partitionTag(a.sample.vc);
                    }
                }
                {
                    LayerSpan span(rec, Layer::CacheProbe);
                    for (std::size_t i = 0; i < m; i++) {
                        Access &a = acc[i];
                        a.outcome = banks[a.map.bank].probeHit(
                                        a.sample.line, a.tag, a.core)
                            ? Outcome::Hit
                            : Outcome::Mem;
                    }
                }
                c.probes += m;
                // The replay's own bookkeeping, outside every span: a
                // line missed earlier in this chunk is filled once and
                // probed again after the fills.
                std::uint64_t pending_hits = 0;
                const bool moves = policy.demandMovesActive();
                for (std::size_t i = 0; i < m; i++) {
                    Access &a = acc[i];
                    a.moveProbe = false;
                    if (a.outcome != Outcome::Mem)
                        continue;
                    if (!pending.insert(a.sample.line ^
                                        (std::uint64_t{a.map.bank}
                                         << 56))) {
                        a.outcome = Outcome::PendingHit;
                        pending_hits++;
                    } else {
                        a.moveProbe = moves && a.map.oldBank != invalidTile;
                    }
                }
                pending.clear();
                {
                    LayerSpan span(rec, Layer::CacheFill);
                    for (std::size_t i = 0; i < m; i++) {
                        Access &a = acc[i];
                        PartitionedBank &bank = banks[a.map.bank];
                        a.evictedSharers = 0;
                        a.flushed = 0;
                        if (a.outcome == Outcome::Mem) {
                            BankAccessResult res;
                            CacheLine moved;
                            if (a.moveProbe &&
                                banks[a.map.oldBank].extractForMove(
                                    a.sample.line, moved)) {
                                res = bank.installMoved(moved, a.tag);
                                a.outcome = Outcome::Moved;
                                c.demandMoves++;
                            } else {
                                res = bank.fill(a.sample.line, a.tag,
                                                a.core);
                            }
                            c.fills++;
                            if (res.evicted) {
                                c.evictions++;
                                a.evictedSharers = res.evictedSharers;
                            }
                        }
                        if (a.map.invalidatePage) {
                            c.pageFlushes++;
                            for (std::uint32_t l = 0; l < linesPerPage;
                                 l++) {
                                if (banks[a.map.invalidateBank]
                                        .invalidateLine(
                                            a.map.invalidatePageBase +
                                            l)) {
                                    a.flushed++;
                                }
                            }
                        }
                    }
                }
                if (pending_hits > 0) {
                    LayerSpan span(rec, Layer::CacheProbe);
                    for (std::size_t i = 0; i < m; i++) {
                        const Access &a = acc[i];
                        if (a.outcome == Outcome::PendingHit) {
                            banks[a.map.bank].probeHit(a.sample.line, a.tag,
                                                       a.core);
                        }
                    }
                    c.probes += pending_hits;
                }
                {
                    LayerSpan span(rec, Layer::MemPlace);
                    for (std::size_t i = 0; i < m; i++) {
                        Access &a = acc[i];
                        if (a.outcome != Outcome::Mem)
                            continue;
                        a.place = placement.placementFor(a.core,
                                                         a.sample.line);
                        c.memAccesses++;
                        if (a.place.tier == MemTier::Far) {
                            c.farAccesses++;
                            chunk_far++;
                        } else {
                            chunk_misses++;
                        }
                    }
                }
                {
                    LayerSpan span(rec, Layer::NetQuery);
                    std::uint64_t queries = 0;
                    for (std::size_t i = 0; i < m; i++) {
                        Access &a = acc[i];
                        const auto bank_tile =
                            static_cast<TileId>(a.map.bank / bpt);
                        double lat = noc.latency(a.core, bank_tile, ctrl) +
                            static_cast<double>(cfg.bankLatency) +
                            noc.latency(bank_tile, a.core, data);
                        queries += 2;
                        TileId from = bank_tile;
                        if (a.moveProbe) {
                            from = static_cast<TileId>(a.map.oldBank / bpt);
                            lat += noc.latency(bank_tile, from, ctrl) +
                                static_cast<double>(cfg.bankLatency);
                            queries++;
                        }
                        if (a.outcome == Outcome::Moved) {
                            lat += noc.latency(from, bank_tile, data);
                            queries++;
                        } else if (a.outcome == Outcome::Mem) {
                            const int mc = a.place.ctrl;
                            if (a.place.tier == MemTier::Far) {
                                lat += noc.farMemLatency(from, mc, ctrl) +
                                    static_cast<double>(cfg.farMemLatency) +
                                    far_queue_delay +
                                    noc.farMemResponseLatency(mc, bank_tile,
                                                              data);
                            } else {
                                lat += noc.memLatency(from, mc, ctrl) +
                                    static_cast<double>(cfg.memLatency) +
                                    queue_delay +
                                    noc.memResponseLatency(mc, bank_tile,
                                                           data);
                            }
                            queries += 2;
                        }
                        a.latency = lat;
                    }
                    c.netQueries += queries;
                }
                {
                    LayerSpan span(rec, Layer::NetAccount);
                    std::uint64_t calls = 0;
                    for (std::size_t i = 0; i < m; i++) {
                        const Access &a = acc[i];
                        const auto bank_tile =
                            static_cast<TileId>(a.map.bank / bpt);
                        if (!plat.monitors.empty() &&
                            (++monitor_ctr & 63) == 0) {
                            noc.addTraffic(
                                TrafficClass::Other, a.core,
                                static_cast<TileId>(a.sample.vc %
                                                    mesh.numTiles()),
                                ctrl);
                            calls++;
                        }
                        noc.addTraffic(TrafficClass::L2ToLLC, a.core,
                                       bank_tile, ctrl);
                        noc.addTraffic(TrafficClass::L2ToLLC, bank_tile,
                                       a.core, data);
                        calls += 2;
                        TileId from = bank_tile;
                        if (a.moveProbe) {
                            from = static_cast<TileId>(a.map.oldBank / bpt);
                            noc.addTraffic(TrafficClass::Other, bank_tile,
                                           from, ctrl);
                            calls++;
                        }
                        if (a.outcome == Outcome::Moved) {
                            noc.addTraffic(TrafficClass::Other, from,
                                           bank_tile, data);
                            calls++;
                        } else if (a.outcome == Outcome::Mem) {
                            const int mc = a.place.ctrl;
                            if (a.place.tier == MemTier::Far) {
                                noc.addFarMemTraffic(TrafficClass::LLCToMem,
                                                     from, mc, ctrl);
                                noc.addFarMemResponse(
                                    TrafficClass::LLCToMem, mc, bank_tile,
                                    data);
                            } else {
                                noc.addMemTraffic(TrafficClass::LLCToMem,
                                                  from, mc, ctrl);
                                noc.addMemResponse(TrafficClass::LLCToMem,
                                                   mc, bank_tile, data);
                            }
                            calls += 2;
                        }
                        for (std::uint64_t mask = a.evictedSharers;
                             mask != 0; mask &= mask - 1) {
                            const int sharer = std::countr_zero(mask);
                            if (sharer < mesh.numTiles()) {
                                noc.addTraffic(TrafficClass::Other,
                                               bank_tile,
                                               static_cast<TileId>(sharer),
                                               ctrl);
                                calls++;
                            }
                        }
                        if (a.flushed > 0) {
                            noc.addMemTraffic(
                                TrafficClass::Other,
                                static_cast<TileId>(a.map.invalidateBank /
                                                    bpt),
                                mesh.memCtrlOf(a.sample.line),
                                data * a.flushed);
                            calls++;
                        }
                    }
                    c.netAccounts += calls;
                }
                // Core timing and runtime inputs: simulator glue, not
                // a layer (outside every span).
                for (std::size_t i = 0; i < m; i++) {
                    const Access &a = acc[i];
                    clocks[a.thread].addAccess(
                        mix.thread(a.thread).instrPerAccess, a.latency);
                    access_matrix[a.thread][a.sample.vc] += 1.0;
                    if (a.outcome == Outcome::Hit ||
                        a.outcome == Outcome::PendingHit) {
                        c.hits++;
                    }
                }
                c.accesses += m;
                if (measured)
                    c.measuredAccesses += m;
            }
            issued += n;

            // Memory queueing (AccessPath::endChunk).
            const double after = meanCycles(clocks);
            if (cfg.modelMemBandwidth) {
                const double dt = std::max(after - before, 1.0);
                const double rho = std::min(
                    0.95, (static_cast<double>(chunk_misses) / dt) /
                        cfg.memLinesPerCycle);
                queue_delay = memQueueWait(rho, cfg.memChannels,
                                           cfg.memLinesPerCycle);
                if (cfg.hasFarTier()) {
                    const double far_rho = std::min(
                        0.95, (static_cast<double>(chunk_far) / dt) /
                            cfg.farMemLinesPerCycle);
                    far_queue_delay = memQueueWait(
                        far_rho, cfg.farMemChannels,
                        cfg.farMemLinesPerCycle);
                }
            }
            {
                LayerSpan span(rec, Layer::NucaWalk);
                policy.advanceWalk(static_cast<Cycles>(std::max(
                                       0.0, after - reconfig_start)),
                                   banks);
            }
        }

        if (epoch + 1 >= cfg.epochs)
            continue;
        const double epoch_mean = meanCycles(clocks);
        const double elapsed = std::max(0.0, epoch_mean - noc_epoch_start);
        {
            LayerSpan span(rec, Layer::NetEpoch);
            noc.epochUpdate(elapsed);
        }
        {
            LayerSpan span(rec, Layer::MemEpoch);
            placement.epochUpdate(noc, elapsed);
            if (plat.tiering != nullptr)
                plat.tiering->epochUpdate(noc, elapsed);
        }
        noc_epoch_start = epoch_mean;
        c.epochUpdates++;

        // Runtime inputs, unsmoothed (EpochController blends them with
        // an EWMA of earlier epochs).
        RuntimeInput in;
        in.mesh = &mesh;
        in.numBanks = plat.numBanks();
        in.banksPerTile = bpt;
        in.bankLines = cfg.bankLines;
        in.allocGranule = static_cast<std::uint64_t>(cfg.allocGranuleLines);
        for (const auto &mon : plat.monitors)
            in.missCurves.push_back(mon->missCurve());
        in.access = access_matrix;
        in.threadCore = thread_core;
        in.hopCycles = hop_cycles;
        in.bankAccessCycles = static_cast<double>(cfg.bankLatency);
        in.memAccessCycles = static_cast<double>(cfg.memLatency);
        cost = cfg.placementCost == "zero-load"
            ? PlacementCostModel(mesh, hop_cycles)
            : PlacementCostModel::fromNoc(noc, hop_cycles, &cost,
                                          0.5 * cfg.monitorSmoothing);
        in.costModel = &cost;

        // Timed with or without spans: two clock reads per epoch.
        const auto t_reconfig = SpanRecorder::Clock::now();
        EpochDirective directive;
        {
            LayerSpan span(rec, Layer::RuntimeEpoch);
            directive = policy.endEpoch(in, banks);
        }
        if (directive.reconfigured) {
            runtime.endEpochMs.push_back(
                std::chrono::duration<double, std::milli>(
                    SpanRecorder::Clock::now() - t_reconfig)
                    .count());
            if (scheme.name == "CDCS") {
                runtime.allocUs += directive.times.allocUs;
                runtime.threadUs += directive.times.threadPlaceUs;
                runtime.dataUs += directive.times.dataPlaceUs;
                runtime.cdcsReconfigs++;
            }
            if (!directive.newThreadCore.empty())
                thread_core = directive.newThreadCore;
            for (CoreClock &clock : clocks)
                clock.addPause(static_cast<double>(directive.pauseCycles));
        }
        for (auto &mon : plat.monitors)
            mon->clearCounters();
        for (auto &row : access_matrix)
            std::fill(row.begin(), row.end(), 0.0);
        reconfig_start = meanCycles(clocks);
    }
    const double wall_ns = std::chrono::duration<double, std::nano>(
        SpanRecorder::Clock::now() - start).count();

    c.measuredFlitHops = noc.totalFlitHops();
    c.migrations = placement.migratedPages();
    if (plat.tiering != nullptr)
        c.migrations += plat.tiering->migratedPages();
    counts.add(c);
    return wall_ns;
}

} // namespace perfbench
