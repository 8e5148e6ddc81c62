/**
 * @file
 * The parallel experiment engine behind every figure sweep: shards
 * individual (scheme, mix) runs — not just mixes — across a
 * work-stealing pool, memoizes the shared S-NUCA baseline, and
 * aggregates per-scheme weighted speedups, latency, traffic and
 * energy into a structured SweepResult with optional JSON export.
 *
 * Determinism: every run is a pure function of (SystemConfig,
 * SchemeSpec, MixSpec) — all RNG streams are derived from the config
 * and mix seeds, never from scheduling order — and aggregation
 * iterates results in a fixed order, so a sweep produces bit-identical
 * output whether it runs serially (workers=1) or on all cores.
 */

#ifndef CDCS_SIM_EXPERIMENT_RUNNER_HH
#define CDCS_SIM_EXPERIMENT_RUNNER_HH

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/task_pool.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"

namespace cdcs
{

/** Per-scheme results of a scheme x mix sweep. */
struct SweepResult
{
    std::vector<SchemeSpec> schemes;
    /// ws[s][m]: weighted speedup of scheme s on mix m vs. scheme 0.
    std::vector<std::vector<double>> ws;
    /// Per-scheme aggregates over mixes.
    std::vector<RunResult> firstRun;    ///< Scheme results on mix 0.
    std::vector<double> onChipLat;      ///< Mean avg on-chip latency.
    std::vector<double> offChipLat;     ///< Mean off-chip lat/instr.
    std::vector<std::array<double, 3>> trafficPerInstr;
    std::vector<double> energyPerInstr;
    std::vector<std::array<double, 5>> energyParts;

    int
    mixes() const
    {
        return ws.empty() ? 0 : static_cast<int>(ws[0].size());
    }

    /** Serialize schemes + per-mix/per-scheme aggregates as JSON. */
    std::string toJson() const;
};

/**
 * Parallel (scheme, mix) experiment runner. One instance owns a
 * work-stealing pool and a baseline memo; reuse it across sweeps so
 * identical baseline runs are shared.
 */
class ExperimentRunner
{
  public:
    struct Options
    {
        /**
         * Worker threads; 0 picks the hardware thread count (the CLI
         * resolves `workers=`/CDCS_WORKERS through runnerOptions). 1
         * forces serial in-order execution (the determinism-check
         * mode).
         */
        unsigned workers = 0;

        /** Share identical S-NUCA baseline runs across sweeps. */
        bool memoizeBaseline = true;

        /**
         * General (cfg, scheme, mix) result cache: any identical run
         * repeated within the runner's lifetime (the same study run
         * twice, lineups sharing runs under one config) is served
         * from the cache, not just S-NUCA baselines. Off by default;
         * `cdcs_studies` always turns it on (runnerOptions).
         */
        bool cacheResults = false;

        /** Max cached entries; FIFO eviction beyond the budget. */
        std::size_t cacheBudget = 1024;

        /**
         * Persistent cache tier: directory of the on-disk result
         * store shared across processes (`--set cacheDir=` /
         * CDCS_CACHE_DIR). Empty disables the tier. Cacheable runs
         * missing in memory are looked up here before simulating,
         * and every simulated cacheable run is written back.
         */
        std::string cacheDir;

        /**
         * Deterministic sweep sharding: this invocation only
         * simulates jobs whose salted content hash satisfies
         * `hash % shardCount == shardIndex`. Non-owned jobs are
         * served from the cache tiers when possible and otherwise
         * skipped (returning a zero RunResult), so a shard's own
         * report output is meaningless — `cdcs_studies merge`
         * recombines the shards' stores into the real report.
         * Requires cacheDir.
         */
        int shardIndex = 0;
        int shardCount = 1;
    };

    /** Result-cache counters (monotonic over the runner's life). */
    struct CacheStats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;

        /** Persistent-tier mirror (all zero without a store). */
        bool persistent = false;  ///< Store attached and usable.
        std::uint64_t storeHits = 0;
        std::uint64_t storeMisses = 0;
        std::uint64_t storeEvictions = 0; ///< Stale records replaced.
        std::uint64_t storeCorrupt = 0;   ///< Records skipped.
        std::uint64_t shardSkipped = 0;   ///< Jobs left to other shards.
    };

    /** One unit of schedulable work. */
    struct Job
    {
        SystemConfig cfg;
        SchemeSpec scheme;
        MixSpec mix;
    };

    ExperimentRunner() : ExperimentRunner(Options{}) {}
    explicit ExperimentRunner(Options options);

    /** Run one scheme on one mix (memoized if an S-NUCA baseline). */
    RunResult run(const SystemConfig &cfg, const SchemeSpec &scheme,
                  const MixSpec &mix);

    /** Run every job concurrently; results in job order. */
    std::vector<RunResult> runAll(const std::vector<Job> &jobs);

    /**
     * Run several schemes on the same mix (identical workload
     * streams), in parallel over schemes; results in scheme order.
     */
    std::vector<RunResult>
    runSchemes(const SystemConfig &cfg,
               const std::vector<SchemeSpec> &schemes,
               const MixSpec &mix);

    /**
     * Run `schemes` (scheme 0 is the baseline all weighted speedups
     * are computed against) over `mixes` mixes built by `mix_of`,
     * sharding all scheme x mix pairs across the pool at once.
     */
    SweepResult sweep(const SystemConfig &cfg,
                      const std::vector<SchemeSpec> &schemes,
                      int mixes,
                      const std::function<MixSpec(int)> &mix_of);

    /** Parallel index map over [0, n) (the pool's stripe order). */
    void forEach(int n, const std::function<void(int)> &fn);

    unsigned workers() const { return pool.workerCount(); }

    /** The shared pool (steal/idle counters for reporting). */
    const WorkStealingPool &taskPool() const { return pool; }

    const Options &options() const { return opts; }

    /** Snapshot of the result-cache counters. */
    CacheStats cacheStats() const;

    /** The persistent store, or nullptr when the tier is off. */
    const ResultStore *store() const { return resultStore.get(); }

  private:
    /**
     * Exact-match memo key: a full serialization of everything that
     * can influence a run's outcome.
     */
    static std::string cacheKey(const SystemConfig &cfg,
                                const SchemeSpec &scheme,
                                const MixSpec &mix);

    RunResult runJob(const Job &job);

    Options opts;
    WorkStealingPool pool;
    std::unique_ptr<ResultStore> resultStore;
    mutable std::mutex cacheMu;
    /**
     * The result cache. Holds S-NUCA baselines (memoizeBaseline) and,
     * when cacheResults is on, every run; bounded by cacheBudget with
     * FIFO eviction (cacheFifo tracks insertion order).
     */
    std::unordered_map<std::string, RunResult> cache;
    std::deque<std::string> cacheFifo;
    CacheStats stats;
};

} // namespace cdcs

#endif // CDCS_SIM_EXPERIMENT_RUNNER_HH
