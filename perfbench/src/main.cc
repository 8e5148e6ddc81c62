/**
 * @file
 * Host-performance benchmark of the CDCS simulator, end to end (see
 * README.md).
 *
 *   perfbench --workload W --seed N --seconds S
 *
 * Repeated batch sweeps (every (scheme, mix) job submitted at once to
 * the work-stealing pool, one fresh runner per repetition) for S
 * seconds, then the set-up time of every job's System. --self-check
 * compares a serial and a parallel sweep's digests instead. The traced
 * per-layer run is the separate perfbench_trace binary.
 *
 * Every run prints the host stamp, the deterministic simulated record
 * and each metric with its unit; the last line of stdout is the JSON
 * result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "sweep.hh"

namespace
{

using namespace cdcs;
using namespace perfbench;

/** Wall seconds to construct every job's System (mix included). */
double
setupSeconds(const Workload &w)
{
    double total = 0.0;
    for (int m = 0; m < w.mixes; m++) {
        for (const SchemeSpec &scheme : w.schemes) {
            const auto t0 = Clock::now();
            System system(w.cfg, scheme, buildMix(w.mix(m)));
            total += secondsSince(t0);
        }
    }
    return total;
}

int
endToEnd(const Workload &w, const Args &args, unsigned workers)
{
    std::vector<double> rate, cpu_ns;
    std::uint64_t attempted = 0, failed = 0;
    bool fresh = true, agree = true;
    SweepRep first;
    const auto t0 = Clock::now();
    int reps = 0;
    while (reps < 3 || secondsSince(t0) < args.seconds) {
        SweepRep rep = runSweep(w, workers);
        rate.push_back(static_cast<double>(rep.accesses) / rep.wallS);
        cpu_ns.push_back(rep.cpuS * 1e9 /
                         static_cast<double>(rep.accesses));
        std::printf("sweep %d: %.3f s wall, %.3f s cpu, %.6g accesses/s, "
                    "%.4g cpu ns/access\n",
                    reps, rep.wallS, rep.cpuS, rate.back(), cpu_ns.back());
        attempted += static_cast<std::uint64_t>(rep.jobs);
        failed += static_cast<std::uint64_t>(rep.failed);
        fresh = fresh && rep.cacheFresh;
        if (reps == 0) {
            first = std::move(rep);
        } else {
            agree = agree && rep.digest == first.digest &&
                rep.counts.line() == first.counts.line();
        }
        reps++;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    // Set-up time: timed apart from the sweeps, repeated for at least
    // five constructions of every job and two seconds.
    std::vector<double> setup;
    const auto t_setup = Clock::now();
    while (setup.size() < (args.quick ? 1u : 5u) ||
           (!args.quick && secondsSince(t_setup) < 2.0)) {
        setup.push_back(setupSeconds(w));
    }
    const int setup_reps = static_cast<int>(setup.size());

    printRecord(w, first, reps, agree);
    if (!fresh) {
        std::printf("error: a result cache served a job inside a timed "
                    "sweep\n");
    }
    char how[96];
    std::snprintf(how, sizeof(how), "median of %d sweeps", reps);
    char setup_how[96];
    std::snprintf(setup_how, sizeof(setup_how),
                  "median of %d serial constructions of all %d jobs",
                  setup_reps, w.jobs());
    std::printf("metric %-30s %.10g %s  (%" PRIu64 " of %" PRIu64
                " jobs failed the gate)\n",
                "failed_share",
                static_cast<double>(failed) /
                    static_cast<double>(std::max<std::uint64_t>(attempted,
                                                                1)),
                "ratio", failed, attempted);
    printResult(failed == 0 && agree && fresh, attempted, failed,
                {{"accesses_per_s", median(rate), "1/s", how},
                 {"cpu_ns_per_access", median(cpu_ns), "ns", how},
                 {"setup_s", median(setup), "s", setup_how},
                 {"peak_rss_mb", peak_rss_mb, "MB",
                  "getrusage ru_maxrss after the sweeps"}});
    return 0;
}

int
selfCheck(const Workload &w, unsigned workers)
{
    const SweepRep serial = runSweep(w, 1);
    const SweepRep parallel = runSweep(w, workers);
    const bool same = serial.digest == parallel.digest &&
        serial.counts.line() == parallel.counts.line();
    std::printf("self-check %s: serial digest %016" PRIx64
                ", %u-worker digest %016" PRIx64 ": %s; gate failures "
                "%d + %d\n",
                w.name.c_str(), serial.digest, workers, parallel.digest,
                same ? "identical" : "DIFFER", serial.failed,
                parallel.failed);
    return same && serial.failed == 0 && parallel.failed == 0 &&
            serial.cacheFresh && parallel.cacheFresh
        ? 0
        : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv, "perfbench", false);
    Workload w;
    const unsigned workers = openRun(args, &w);
    return args.selfCheck ? selfCheck(w, workers)
                          : endToEnd(w, args, workers);
}
