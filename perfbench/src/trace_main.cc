/**
 * @file
 * The benchmark's traced per-layer run (see README.md), timed apart
 * from the end-to-end runs:
 *
 *   perfbench_trace --workload W --seed N --seconds S --trace-file P
 *
 * One parallel sweep for the pool counters, one serial in-situ run per
 * scheme, and the per-layer replay with spans on and off. It is a
 * binary of its own because the replay reaches into layer classes
 * whose interfaces change with the simulator; the end-to-end
 * `perfbench` does not depend on them.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gate.hh"
#include "replay.hh"
#include "spans.hh"
#include "sweep.hh"

namespace
{

using namespace cdcs;
using namespace perfbench;

/**
 * Value at the highest rank with at least ten samples beyond it, and
 * that rank's percentile; the maximum (percentile 100) with ten or
 * fewer samples.
 */
std::pair<double, double>
tail(std::vector<double> xs)
{
    if (xs.empty())
        return {0.0, 0.0};
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    if (n <= 10)
        return {xs.back(), 100.0};
    const std::size_t k = n - 11; // ten samples above index k
    return {xs[k], 100.0 * static_cast<double>(k + 1) /
                static_cast<double>(n)};
}

int
traced(const Workload &w, const Args &args, unsigned workers)
{
    std::uint64_t attempted = 0, failed = 0;

    // 1. One parallel sweep: the pool's counters.
    const SweepRep rep = runSweep(w, workers);
    attempted += static_cast<std::uint64_t>(rep.jobs);
    failed += static_cast<std::uint64_t>(rep.failed);
    printRecord(w, rep, 1, true);

    // 2. Serial in-situ runs of mix 0: System ctor and run() spans.
    SpanRecorder rec;
    rec.configure(true, true);
    double ctor_s = 0.0, run_s = 0.0;
    std::uint64_t insitu_accesses = 0, clamped = 0;
    const MixSpec mix0 = w.mix(0);
    for (const SchemeSpec &scheme : w.schemes) {
        rec.begin("System ctor " + scheme.name);
        auto t0 = Clock::now();
        auto system =
            std::make_unique<System>(w.cfg, scheme, buildMix(mix0));
        ctor_s += secondsSince(t0);
        rec.end();
        rec.begin("System::run " + scheme.name);
        t0 = Clock::now();
        const RunResult r = system->run();
        run_s += secondsSince(t0);
        rec.end();
        attempted++;
        if (!checkRun(r, w.measuredAccessesPerMix()).empty())
            failed++;
        insitu_accesses += w.accessesPerMix();
        for (const NocLinkStat &link : r.nocLinks)
            clamped += link.util >= w.cfg.nocMaxUtil ? 1 : 0;
    }
    const double sim_ns = run_s * 1e9 /
        static_cast<double>(insitu_accesses);

    // 3. The replay, spans on and off for each job, the side that runs
    //    first alternating by mix so neither carries a first-run
    //    penalty: every mix of the sweep, then further mixes while
    //    --seconds allows. Counts come from the sweep's mixes only, so
    //    they repeat exactly; timings and reconfiguration samples from
    //    every replayed job. Chrome events are kept for mix 0.
    ReplayCounts swept, counts_all, scratch;
    RuntimeSamples runtime;
    double on_ns = 0.0, off_ns = 0.0;
    // Layer self time per access over mix 0, the jobs the in-situ
    // sim.ns_per_access timed.
    double mix0_layer_ns = 0.0;
    const auto t_replay = Clock::now();
    int mixes_replayed = 0;
    for (int m = 0; m < w.mixes || secondsSince(t_replay) < args.seconds;
         m++) {
        for (const SchemeSpec &scheme : w.schemes) {
            ReplayCounts c;
            const auto spans_on = [&] {
                rec.configure(true, m == 0);
                rec.begin("replay " + scheme.name);
                on_ns += replayJob(w.cfg, scheme, w.mix(m), rec, c,
                                   runtime);
                rec.end();
            };
            const auto spans_off = [&] {
                rec.configure(false, false);
                off_ns += replayJob(w.cfg, scheme, w.mix(m), rec, scratch,
                                    runtime);
            };
            if (m % 2 == 0) {
                spans_on();
                spans_off();
            } else {
                spans_off();
                spans_on();
            }
            counts_all.add(c);
            if (m < w.mixes)
                swept.add(c);
        }
        if (m == 0) {
            for (int l = 0; l < kLayers; l++)
                mix0_layer_ns += rec.layerNs(static_cast<Layer>(l));
            mix0_layer_ns /= static_cast<double>(counts_all.accesses);
        }
        mixes_replayed++;
    }

    const auto per = [&](Layer l, std::uint64_t calls) {
        return calls > 0 ? rec.layerNs(l) / static_cast<double>(calls)
                         : 0.0;
    };
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b > 0 ? static_cast<double>(a) / static_cast<double>(b)
                     : 0.0;
    };
    const double epoch_calls =
        static_cast<double>(std::max<std::uint64_t>(counts_all.epochUpdates,
                                                    1));
    const auto [tail_ms, tail_pct] = tail(runtime.endEpochMs);
    const double to_mcycles = 2000.0 / 1e6 /
        std::max(runtime.cdcsReconfigs, 1);

    const std::string &path = args.traceFile;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    std::error_code ec;
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);
    if (!rec.writeChromeTrace(path)) {
        std::fprintf(stderr, "perfbench_trace: cannot write %s\n",
                     path.c_str());
        return 1;
    }
    std::printf("trace: %s (%zu events; replayed %d mix(es) x %zu "
                "schemes, spans on and off)\n",
                path.c_str(), rec.events(), mixes_replayed,
                w.schemes.size());

    const std::string n_samples =
        std::to_string(runtime.endEpochMs.size()) + " reconfigurations";
    const std::string sweep_count = "count, replay of every sweep job";
    printResult(
        failed == 0 && rep.cacheFresh, attempted, failed,
        {{"cache.probe_ns", per(Layer::CacheProbe, counts_all.probes),
          "ns", "per probeHit"},
         {"cache.fill_ns", per(Layer::CacheFill, counts_all.fills), "ns",
          "per fill or demand move, flushes included"},
         {"cache.hit_ratio", ratio(swept.hits, swept.accesses),
          "ratio", "replay, all epochs"},
         {"cache.evictions", static_cast<double>(swept.evictions),
          "count", sweep_count},
         {"cache.demand_moves", static_cast<double>(swept.demandMoves),
          "count", sweep_count},
         {"workload.next_ns", per(Layer::Workload, counts_all.accesses),
          "ns", "per nextAccess"},
         {"nuca.map_ns", per(Layer::NucaMap, counts_all.accesses), "ns",
          "per map"},
         {"nuca.page_flushes", static_cast<double>(swept.pageFlushes),
          "count", sweep_count},
         {"monitor.access_ns",
          per(Layer::Monitor, counts_all.monitorCalls), "ns",
          "per SampledMonitor::access"},
         {"monitor.accesses", static_cast<double>(swept.monitorCalls),
          "count", sweep_count},
         {"net.query_ns", per(Layer::NetQuery, counts_all.netQueries),
          "ns", "per latency query"},
         {"net.account_ns",
          per(Layer::NetAccount, counts_all.netAccounts), "ns",
          "per traffic call"},
         {"net.epoch_update_ms",
          rec.layerNs(Layer::NetEpoch) / 1e6 / epoch_calls, "ms",
          "per epoch boundary"},
         {"net.flit_hops_per_access",
          ratio(swept.measuredFlitHops, swept.measuredAccesses),
          "flit-hops", "post-warmup, replay of every sweep job"},
         {"net.clamped_links", static_cast<double>(clamped), "count",
          "links at nocMaxUtil, in-situ mix-0 runs"},
         {"mem.place_ns", per(Layer::MemPlace, counts_all.memAccesses),
          "ns", "per placementFor"},
         {"mem.epoch_update_ms",
          rec.layerNs(Layer::MemEpoch) / 1e6 / epoch_calls, "ms",
          "per epoch boundary, placement + tiering"},
         {"mem.miss_per_access",
          ratio(swept.memAccesses, swept.accesses), "ratio",
          "replay, all epochs"},
         {"mem.far_share", ratio(swept.farAccesses, swept.memAccesses),
          "ratio", "replay, all epochs"},
         {"mem.migrations", static_cast<double>(swept.migrations),
          "count", sweep_count},
         {"runtime.end_epoch_ms_p50", median(runtime.endEpochMs), "ms",
          n_samples},
         {"runtime.end_epoch_ms_tail", tail_ms, "ms",
          "at runtime.end_epoch_tail_pct"},
         {"runtime.end_epoch_tail_pct", tail_pct, "%",
          "highest percentile with >=10 samples beyond it"},
         {"runtime.end_epoch_samples",
          static_cast<double>(runtime.endEpochMs.size()), "count",
          "reconfiguring endEpoch calls timed"},
         {"runtime.alloc_mcycles", runtime.allocUs * to_mcycles,
          "Mcycles", "CDCS, per reconfiguration, 2 GHz"},
         {"runtime.thread_mcycles", runtime.threadUs * to_mcycles,
          "Mcycles", "CDCS, per reconfiguration, 2 GHz"},
         {"runtime.data_mcycles", runtime.dataUs * to_mcycles, "Mcycles",
          "CDCS, per reconfiguration, 2 GHz"},
         {"sim.setup_ms",
          ctor_s * 1e3 / static_cast<double>(w.schemes.size()), "ms",
          "per System construction, serial"},
         {"sim.ns_per_access", sim_ns, "ns", "System::run, serial"},
         {"pool.steals", static_cast<double>(rep.steals), "count",
          "one parallel sweep"},
         {"pool.idle_s", rep.idleS, "s", "one parallel sweep"},
         {"pool.utilization",
          rep.cpuS / (static_cast<double>(workers) * rep.wallS), "ratio",
          "CPU s / (workers x wall s)"},
         {"replay.coverage",
          mix0_layer_ns / sim_ns, "ratio",
          "mix-0 layer self time per access / sim.ns_per_access"},
         {"trace.overhead", (on_ns - off_ns) / off_ns, "ratio",
          "replay wall, spans on vs off, order alternating by mix"}});
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv, "perfbench_trace", true);
    Workload w;
    const unsigned workers = openRun(args, &w);
    return traced(w, args, workers);
}
