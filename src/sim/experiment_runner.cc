#include "sim/experiment_runner.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <type_traits>

#include "common/format.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "obs/phase_timer.hh"
#include "obs/trace.hh"

namespace cdcs
{

namespace
{

void
appendDoubleArray(std::string &out, const std::vector<double> &xs)
{
    out += '[';
    for (std::size_t i = 0; i < xs.size(); i++)
        appendF(out, "%s%.17g", i > 0 ? "," : "", xs[i]);
    out += ']';
}

} // anonymous namespace

std::string
SweepResult::toJson() const
{
    std::string out = "{\n";
    appendF(out, "  \"mixes\": %d,\n", mixes());
    out += "  \"schemes\": [\n";
    for (std::size_t s = 0; s < schemes.size(); s++) {
        out += "    {\n";
        appendF(out, "      \"name\": \"%s\",\n",
                jsonEscape(schemes[s].name).c_str());
        out += "      \"ws\": ";
        appendDoubleArray(out, ws[s]);
        out += ",\n";
        appendF(out, "      \"gmeanWs\": %.17g,\n",
                ws[s].empty() ? 0.0 : gmean(ws[s]));
        appendF(out, "      \"onChipLat\": %.17g,\n", onChipLat[s]);
        appendF(out, "      \"offChipLat\": %.17g,\n", offChipLat[s]);
        appendF(out,
                "      \"trafficPerInstr\": [%.17g,%.17g,%.17g],\n",
                trafficPerInstr[s][0], trafficPerInstr[s][1],
                trafficPerInstr[s][2]);
        appendF(out, "      \"energyPerInstr\": %.17g,\n",
                energyPerInstr[s]);
        appendF(out,
                "      \"energyParts\": {\"static\": %.17g, "
                "\"core\": %.17g, \"net\": %.17g, \"llc\": %.17g, "
                "\"mem\": %.17g}",
                energyParts[s][0], energyParts[s][1],
                energyParts[s][2], energyParts[s][3],
                energyParts[s][4]);
        // Far-memory tiering summary, only when the run tracked
        // tiered pages (a far tier was on) so no-far-tier documents
        // keep their legacy shape.
        if (s < firstRun.size() && firstRun[s].tieredPages > 0) {
            out += ",\n";
            appendF(out,
                    "      \"farAccessShare\": %.17g,\n"
                    "      \"farResidentPages\": %" PRIu64
                    ",\n      \"tierPromotions\": %" PRIu64
                    ",\n      \"tierDemotions\": %" PRIu64 "",
                    firstRun[s].farAccessShare(),
                    firstRun[s].farResidentPages,
                    firstRun[s].tierPromotions,
                    firstRun[s].tierDemotions);
        }
        // Link-load summary, only under link-tracking noc models so
        // zero-load sweep documents keep their legacy shape.
        if (s < firstRun.size() && !firstRun[s].nocLinks.empty()) {
            std::uint64_t peak = 0;
            double max_util = 0.0;
            for (const NocLinkStat &link : firstRun[s].nocLinks) {
                peak = std::max(peak, link.flits);
                max_util = std::max(max_util, link.util);
            }
            out += ",\n";
            appendF(out,
                    "      \"nocPeakLinkFlits\": %" PRIu64
                    ",\n      \"nocMaxLinkUtil\": %.17g\n",
                    peak, max_util);
        } else {
            out += "\n";
        }
        appendF(out, "    }%s\n",
                s + 1 < schemes.size() ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
}

ExperimentRunner::ExperimentRunner(Options options)
    : opts(options), pool(options.workers)
{
    cdcs_assert(opts.shardCount >= 1 &&
                    opts.shardIndex >= 0 &&
                    opts.shardIndex < opts.shardCount,
                "shard index out of range");
    if (!opts.cacheDir.empty()) {
        resultStore = std::make_unique<ResultStore>(opts.cacheDir);
        if (!resultStore->ok()) {
            std::fprintf(stderr,
                         "[result-store] %s — persistent cache "
                         "disabled\n",
                         resultStore->error().c_str());
            resultStore.reset();
        }
    }
    // Sharding partitions on the store's salted content hash and is
    // only useful when shards can exchange results through a store.
    cdcs_assert(opts.shardCount == 1 || resultStore != nullptr,
                "sharded runs need a usable cacheDir");
}

std::string
ExperimentRunner::cacheKey(const SystemConfig &cfg,
                           const SchemeSpec &scheme,
                           const MixSpec &mix)
{
    std::string key;
    key.reserve(1024);
    // SystemConfig: every entry of its field list.
    forEachField(cfg, [&key](const char *name, const auto &field,
                             const FieldRule &) {
        using T =
            std::remove_cv_t<std::remove_reference_t<decltype(field)>>;
        key += name;
        key += '=';
        if constexpr (std::is_same_v<T, std::string>)
            key += field;
        else if constexpr (std::is_floating_point_v<T>)
            appendF(key, "%.17g", field);
        else if constexpr (std::is_enum_v<T>)
            key += std::to_string(static_cast<int>(field));
        else
            key += std::to_string(field);
        key += ';';
    });
    key += '|';
    // SchemeSpec (name excluded: it is a label, not behavior).
    appendF(key,
            "spec:%d,%d,%d,%d,%u,%u,%u,%d,%d,%d,%d,%d,%.17g,%.17g,"
            "%.17g|",
            static_cast<int>(scheme.kind),
            static_cast<int>(scheme.moves),
            static_cast<int>(scheme.sched),
            static_cast<int>(scheme.monitor), scheme.monitorWays,
            scheme.monitorSets, scheme.monitorSampleShift,
            static_cast<int>(scheme.placer), scheme.saIterations,
            scheme.cdcsOpts.latencyAwareAlloc ? 1 : 0,
            scheme.cdcsOpts.placeThreads ? 1 : 0,
            scheme.cdcsOpts.refineTrades ? 1 : 0,
            scheme.cdcsOpts.minAllocLines,
            scheme.cdcsOpts.sizeHysteresis,
            scheme.cdcsOpts.placeGranule);
    // MixSpec.
    appendF(key, "mix:%d,%d,%" PRIu64,
            static_cast<int>(mix.kind), mix.count, mix.seed);
    for (const std::string &name : mix.names) {
        key += ',';
        key += name;
    }
    return key;
}

ExperimentRunner::CacheStats
ExperimentRunner::cacheStats() const
{
    std::lock_guard<std::mutex> lock(cacheMu);
    CacheStats snapshot = stats;
    snapshot.entries = cache.size();
    if (resultStore != nullptr) {
        const ResultStoreStats ss = resultStore->stats();
        snapshot.persistent = true;
        snapshot.storeHits = ss.hits;
        snapshot.storeMisses = ss.misses;
        snapshot.storeEvictions = ss.evictions;
        snapshot.storeCorrupt = ss.corrupt;
    }
    return snapshot;
}

RunResult
ExperimentRunner::runJob(const Job &job)
{
    const bool cacheable = opts.cacheResults ||
        (opts.memoizeBaseline &&
         job.scheme.kind == SchemeKind::SNuca);
    const bool sharded = opts.shardCount > 1;
    std::string key;
    if (cacheable || sharded)
        key = cacheKey(job.cfg, job.scheme, job.mix);
    if (cacheable) {
        std::lock_guard<std::mutex> lock(cacheMu);
        const auto it = cache.find(key);
        if (it != cache.end()) {
            stats.hits++;
            return it->second;
        }
        stats.misses++;
    }
    // Persistent tier: another process (a previous invocation, a
    // sibling shard, a warm CI rerun) may already have this cell.
    RunResult res;
    bool stored = false;
    if (cacheable && resultStore != nullptr) {
        PhaseTimer timer(Phase::StoreIo);
        stored = resultStore->load(key, &res);
    }
    if (!stored) {
        // Shard partition: only the owning shard simulates a cell
        // that no cache tier could serve. The zero result makes the
        // shard's own stdout meaningless by design; `merge` re-reads
        // the fully populated store to produce the real,
        // byte-identical report.
        if (sharded &&
            resultStore->keyHash(key) %
                    static_cast<std::uint64_t>(opts.shardCount) !=
                static_cast<std::uint64_t>(opts.shardIndex)) {
            std::lock_guard<std::mutex> lock(cacheMu);
            stats.shardSkipped++;
            return RunResult{};
        }
        // One span per simulated job, on whichever worker ran it;
        // cache hits deliberately emit nothing (near-zero duration,
        // and the interesting question is where simulation time
        // goes).
        TraceSpan job_span(Tracer::enabled()
                               ? job.scheme.name + " mix" +
                                   std::to_string(job.mix.seed)
                               : std::string());
        res = runScheme(job.cfg, job.scheme, job.mix);
        if (!cacheable)
            return res;
        if (resultStore != nullptr) {
            PhaseTimer timer(Phase::StoreIo);
            resultStore->save(key, res);
        }
    }
    std::lock_guard<std::mutex> lock(cacheMu);
    // Two workers can race to compute the same key; the first insert
    // wins and the FIFO tracks only successful inserts.
    if (cache.emplace(key, res).second) {
        cacheFifo.push_back(std::move(key));
        while (cache.size() > opts.cacheBudget) {
            cache.erase(cacheFifo.front());
            cacheFifo.pop_front();
            stats.evictions++;
        }
    }
    return res;
}

RunResult
ExperimentRunner::run(const SystemConfig &cfg,
                      const SchemeSpec &scheme, const MixSpec &mix)
{
    return runJob(Job{cfg, scheme, mix});
}

std::vector<RunResult>
ExperimentRunner::runAll(const std::vector<Job> &jobs)
{
    std::vector<RunResult> results(jobs.size());
    pool.run(jobs.size(), [this, &jobs, &results](std::size_t i) {
        results[i] = runJob(jobs[i]);
    });
    return results;
}

std::vector<RunResult>
ExperimentRunner::runSchemes(const SystemConfig &cfg,
                             const std::vector<SchemeSpec> &schemes,
                             const MixSpec &mix)
{
    std::vector<Job> jobs;
    jobs.reserve(schemes.size());
    for (const SchemeSpec &scheme : schemes)
        jobs.push_back(Job{cfg, scheme, mix});
    return runAll(jobs);
}

void
ExperimentRunner::forEach(int n, const std::function<void(int)> &fn)
{
    if (n <= 0)
        return;
    pool.run(static_cast<std::size_t>(n),
             [&fn](std::size_t i) { fn(static_cast<int>(i)); });
}

SweepResult
ExperimentRunner::sweep(const SystemConfig &cfg,
                        const std::vector<SchemeSpec> &schemes,
                        int mixes,
                        const std::function<MixSpec(int)> &mix_of)
{
    const std::size_t num_schemes = schemes.size();
    SweepResult out;
    out.schemes = schemes;
    out.ws.assign(num_schemes, std::vector<double>(mixes, 0.0));
    out.onChipLat.assign(num_schemes, 0.0);
    out.offChipLat.assign(num_schemes, 0.0);
    out.trafficPerInstr.assign(num_schemes, {0.0, 0.0, 0.0});
    out.energyPerInstr.assign(num_schemes, 0.0);
    out.energyParts.assign(num_schemes, {0, 0, 0, 0, 0});
    out.firstRun.resize(num_schemes);
    if (num_schemes == 0 || mixes <= 0)
        return out;

    // Shard every (scheme, mix) pair, not just mixes: a sweep with
    // fewer mixes than cores still saturates the machine.
    std::vector<Job> jobs;
    jobs.reserve(num_schemes * mixes);
    for (int m = 0; m < mixes; m++) {
        const MixSpec mix = mix_of(m);
        for (std::size_t s = 0; s < num_schemes; s++)
            jobs.push_back(Job{cfg, schemes[s], mix});
    }
    const std::vector<RunResult> all = runAll(jobs);

    // Deterministic aggregation order: mixes outer, schemes inner,
    // independent of which worker finished when.
    for (int m = 0; m < mixes; m++) {
        const RunResult &base = all[m * num_schemes];
        for (std::size_t s = 0; s < num_schemes; s++) {
            const RunResult &r = all[m * num_schemes + s];
            // Sharded runs leave non-owned cells as zero results
            // (empty procThroughput); a shard's own report is
            // partial by design, so aggregate them as a neutral 1.0
            // (gmean-safe) rather than assert — `merge` re-reads
            // every cell from the store for the real report.
            out.ws[s][m] = r.procThroughput.empty() ||
                    r.procThroughput.size() !=
                        base.procThroughput.size()
                ? 1.0
                : weightedSpeedup(r, base);
            out.onChipLat[s] += r.avgOnChipLatency() / mixes;
            out.offChipLat[s] += r.offChipLatPerInstr() / mixes;
            for (int c = 0; c < 3; c++) {
                out.trafficPerInstr[s][c] +=
                    r.flitHopsPerInstr(static_cast<TrafficClass>(c)) /
                    mixes;
            }
            // Zero-work runs (e.g. epochs == warmup) contribute zero
            // energy rather than NaN, mirroring avgOnChipLatency().
            if (r.totalInstrs > 0.0) {
                out.energyPerInstr[s] +=
                    r.energy.total() / r.totalInstrs / mixes;
                out.energyParts[s][0] +=
                    r.energy.staticE / r.totalInstrs / mixes;
                out.energyParts[s][1] +=
                    r.energy.core / r.totalInstrs / mixes;
                out.energyParts[s][2] +=
                    r.energy.net / r.totalInstrs / mixes;
                out.energyParts[s][3] +=
                    r.energy.llc / r.totalInstrs / mixes;
                out.energyParts[s][4] +=
                    r.energy.mem / r.totalInstrs / mixes;
            }
        }
    }
    for (std::size_t s = 0; s < num_schemes; s++)
        out.firstRun[s] = all[s];
    return out;
}

} // namespace cdcs
