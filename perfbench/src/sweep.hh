/**
 * @file
 * What both benchmark binaries share: the command line, the measured
 * batch sweep with its correctness gate, and the printed record and
 * result. Everything here uses only the simulator's stable API
 * (ExperimentRunner, System, RunResult, SweepResult), so `perfbench`,
 * which is built from this alone, compiles against any commit of the
 * simulator; the layer-level replay lives in `perfbench_trace` only.
 */

#ifndef PERFBENCH_SWEEP_HH
#define PERFBENCH_SWEEP_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment_runner.hh"
#include "workloads.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    bool quick = false;
    bool selfCheck = false;
    std::string traceFile;
    std::string code = "unknown";
};

/**
 * Parse the command line of `prog`; exits 2 with usage on an error.
 * `traced` selects perfbench_trace's options (--trace-file) over
 * perfbench's (--self-check).
 */
Args parseArgs(int argc, char **argv, const char *prog, bool traced);

/**
 * Build the workload and print the host stamp; exits 2 for an unknown
 * workload or an unoptimized or sanitizer build. Returns the workers.
 */
unsigned openRun(const Args &args, Workload *w);

double secondsSince(Clock::time_point t0);

/** User + system CPU seconds of the whole process (all threads). */
double cpuSeconds();

double median(std::vector<double> xs);

/** Simulated counts of a sweep, summed over its jobs. */
struct SimCounts
{
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t farMemAccesses = 0;
    std::uint64_t demandMoves = 0;
    std::uint64_t moveProbes = 0;
    std::uint64_t flitHops = 0;
    std::uint64_t bgInvalidated = 0;
    std::uint64_t migratedPages = 0;
    std::uint64_t tierPromotions = 0;
    std::uint64_t reconfigs = 0;

    void add(const cdcs::RunResult &r);
    std::string line() const;
};

/** One measured batch sweep and its gate verdict. */
struct SweepRep
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::uint64_t accesses = 0; ///< Simulated, warmup included.
    std::uint64_t digest = 0;   ///< sweepDigest(); 0 when a WS failed.
    int jobs = 0;
    int failed = 0;
    bool cacheFresh = true; ///< No job was served by a result cache.
    cdcs::SweepResult sweep;
    SimCounts counts;
    /// Mean CDCS runtime step times per reconfiguration (host us).
    cdcs::RuntimeStepTimes cdcsTimes;
    std::uint64_t steals = 0;
    double idleS = 0.0;
};

/**
 * One batch sweep of every (scheme, mix) job on a fresh runner with
 * `workers` threads, timed, then every job read back and gated.
 */
SweepRep runSweep(const Workload &w, unsigned workers);

/**
 * The deterministic simulated record (repeats exactly per seed). A
 * sweep whose weighted speedups fail the gate prints no gmean.
 */
void printRecord(const Workload &w, const SweepRep &rep, int reps,
                 bool digests_agree);

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string how;
};

/** One `metric` line each, then the JSON result as the last line. */
void printResult(bool correct, std::uint64_t attempted,
                 std::uint64_t failed, const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_SWEEP_HH
