#include "sweep.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/stats.hh"
#include "gate.hh"
#include "host.hh"

namespace perfbench
{

using namespace cdcs;

namespace
{

[[noreturn]] void
usage(const char *prog, bool traced, const char *msg)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload NAME --seconds S "
                 "[--seed N] [--code-version TEXT] [--quick] %s\n"
                 "workloads:",
                 prog, msg, prog,
                 traced ? "--trace-file PATH" : "[--self-check]");
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

} // namespace

Args
parseArgs(int argc, char **argv, const char *prog, bool traced)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string k = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(prog, traced, ("missing value for " + k).c_str());
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(value().c_str(), nullptr);
        else if (k == "--code-version")
            a.code = value();
        else if (k == "--quick")
            a.quick = true;
        else if (k == "--trace-file" && traced)
            a.traceFile = value();
        else if (k == "--self-check" && !traced)
            a.selfCheck = true;
        else
            usage(prog, traced, ("unknown argument " + k).c_str());
    }
    if (a.workload.empty())
        usage(prog, traced, "--workload is required");
    if (!(a.seconds > 0.0) && !a.selfCheck)
        usage(prog, traced, "--seconds must be given and positive");
    if (traced && a.traceFile.empty())
        usage(prog, traced, "--trace-file is required");
    return a;
}

unsigned
openRun(const Args &args, Workload *w)
{
    if (!makeWorkload(args.workload, args.seed, args.quick, w)) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     args.workload.c_str());
        std::exit(2);
    }
    const unsigned workers =
        std::max(1u, std::thread::hardware_concurrency());
    const HostStamp host = hostStamp(args.code, workers);
    std::printf("host: %s\n", host.line.c_str());
    if (!host.optimized || host.sanitized) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure an unoptimized or "
                     "sanitizer build: its numbers compare with nothing\n");
        std::exit(2);
    }
    return workers;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
        1e6;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

void
SimCounts::add(const RunResult &r)
{
    llcAccesses += r.llcAccesses;
    llcHits += r.llcHits;
    memAccesses += r.memAccesses;
    farMemAccesses += r.farMemAccesses;
    demandMoves += r.demandMoves;
    moveProbes += r.moveProbes;
    for (std::uint64_t f : r.trafficFlitHops)
        flitHops += f;
    bgInvalidated += r.bgInvalidated;
    migratedPages += r.memMigratedPages;
    tierPromotions += r.tierPromotions;
    reconfigs += static_cast<std::uint64_t>(r.reconfigs);
}

std::string
SimCounts::line() const
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "llcAccesses=%" PRIu64 " llcHits=%" PRIu64
                  " memAccesses=%" PRIu64 " farMemAccesses=%" PRIu64
                  " demandMoves=%" PRIu64 " moveProbes=%" PRIu64
                  " flitHops=%" PRIu64 " bgInvalidated=%" PRIu64
                  " migratedPages=%" PRIu64 " tierPromotions=%" PRIu64
                  " reconfigs=%" PRIu64,
                  llcAccesses, llcHits, memAccesses, farMemAccesses,
                  demandMoves, moveProbes, flitHops, bgInvalidated,
                  migratedPages, tierPromotions, reconfigs);
    return buf;
}

SweepRep
runSweep(const Workload &w, unsigned workers)
{
    SweepRep rep;
    rep.jobs = w.jobs();
    // A fresh runner per repetition: no S-NUCA memo, no persistent
    // store. The in-memory result cache is on only so the gate can
    // read back every job's RunResult after the timed sweep.
    ExperimentRunner::Options opts;
    opts.workers = workers;
    opts.memoizeBaseline = false;
    opts.cacheResults = true;
    opts.cacheBudget = static_cast<std::size_t>(rep.jobs) + 1;
    ExperimentRunner runner(opts);

    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    rep.sweep = runner.sweep(w.cfg, w.schemes, w.mixes,
                             [&w](int m) { return w.mix(m); });
    rep.wallS = secondsSince(t0);
    rep.cpuS = cpuSeconds() - cpu0;
    rep.steals = runner.taskPool().stealCount();
    rep.idleS = static_cast<double>(runner.taskPool().idleNanos()) / 1e9;

    const ExperimentRunner::CacheStats during = runner.cacheStats();
    rep.cacheFresh = during.hits == 0 &&
        during.misses == static_cast<std::uint64_t>(rep.jobs);
    int cdcs_runs = 0;
    for (int m = 0; m < w.mixes; m++) {
        for (std::size_t s = 0; s < w.schemes.size(); s++) {
            const RunResult r = runner.run(w.cfg, w.schemes[s], w.mix(m));
            std::vector<std::string> bad =
                checkRun(r, w.measuredAccessesPerMix());
            for (std::string &v : checkWs(rep.sweep.ws[s][m]))
                bad.push_back(std::move(v));
            if (!bad.empty()) {
                rep.failed++;
                std::fprintf(stderr, "gate: %s mix %d: %s\n",
                             w.schemes[s].name.c_str(), m, bad[0].c_str());
            }
            rep.counts.add(r);
            rep.accesses += w.accessesPerMix();
            if (w.schemes[s].name == "CDCS") {
                rep.cdcsTimes.allocUs += r.avgTimes.allocUs;
                rep.cdcsTimes.threadPlaceUs += r.avgTimes.threadPlaceUs;
                rep.cdcsTimes.dataPlaceUs += r.avgTimes.dataPlaceUs;
                cdcs_runs++;
            }
        }
    }
    if (cdcs_runs > 0) {
        rep.cdcsTimes.allocUs /= cdcs_runs;
        rep.cdcsTimes.threadPlaceUs /= cdcs_runs;
        rep.cdcsTimes.dataPlaceUs /= cdcs_runs;
    }
    // Every read-back must have come from the cache, i.e. from the
    // timed sweep itself.
    rep.cacheFresh = rep.cacheFresh &&
        runner.cacheStats().hits == static_cast<std::uint64_t>(rep.jobs);
    rep.digest = sweepDigest(rep.sweep);
    return rep;
}

void
printRecord(const Workload &w, const SweepRep &rep, int reps,
            bool digests_agree)
{
    std::printf("sim: workload %s: %d jobs (%zu schemes x %d mixes), "
                "%d epochs (%d warmup) x %" PRIu64
                " accesses/thread, caches start empty\n",
                w.name.c_str(), rep.jobs, w.schemes.size(), w.mixes,
                w.cfg.epochs, w.cfg.warmupEpochs,
                w.cfg.accessesPerThreadEpoch);
    std::printf("sim: digest %016" PRIx64 " (SweepResult::toJson; %s "
                "across %d repetitions)\n",
                rep.digest, digests_agree ? "identical" : "DIFFERS", reps);
    std::printf("sim: counts %s\n", rep.counts.line().c_str());
    if (wsValid(rep.sweep)) {
        std::printf("sim: gmean WS over %s:", w.schemes[0].name.c_str());
        for (std::size_t s = 0; s < w.schemes.size(); s++) {
            std::printf(" %s %.6f", w.schemes[s].name.c_str(),
                        gmean(rep.sweep.ws[s]));
        }
        std::printf("\n");
    } else {
        std::printf("sim: gmean WS: none (a weighted speedup failed the "
                    "gate)\n");
    }
    if (!w.paperWs.empty())
        std::printf("paper: %s\n", w.paperWs.c_str());
    const double to_mcycles = 2000.0 / 1e6; // us -> Mcycles at 2 GHz
    std::printf("host: CDCS runtime per reconfiguration (host time, "
                "Mcycles at 2 GHz): alloc %.4f thread %.4f data %.4f "
                "total %.4f; paper Table 3: 0.72 (16 threads/16 cores), "
                "6.49 (64/64); this workload is %d/%d\n",
                rep.cdcsTimes.allocUs * to_mcycles,
                rep.cdcsTimes.threadPlaceUs * to_mcycles,
                rep.cdcsTimes.dataPlaceUs * to_mcycles,
                rep.cdcsTimes.totalUs() * to_mcycles,
                w.threads, w.cfg.meshWidth * w.cfg.meshHeight);
    std::printf("note: the NoC (M/D/1 per link) and memory (M/D/m) "
                "queueing models are unvalidated: no reference results "
                "exist, so no error figure is given\n");
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("metric %-30s %.10g %s  (%s)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.how.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); i++) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i > 0 ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
