/**
 * @file
 * The benchmark's correctness gate. A job fails when its RunResult
 * breaks an accounting identity the simulator must keep, or when its
 * weighted speedup is not a positive finite number. A job that
 * crashes takes the benchmark process down, which fails the run.
 */

#ifndef PERFBENCH_GATE_HH
#define PERFBENCH_GATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment_runner.hh"
#include "sim/run_result.hh"

namespace perfbench
{

/**
 * Violations of one job's RunResult (empty when it passes).
 * `expected_accesses` is threads x epochAccesses x measured epochs,
 * the LLC accesses a run without churn must report after warmup.
 */
std::vector<std::string> checkRun(const cdcs::RunResult &run,
                                  std::uint64_t expected_accesses);

/** Violation of one weighted speedup, or empty. */
std::vector<std::string> checkWs(double ws);

/** Every weighted speedup of the sweep passes checkWs. */
bool wsValid(const cdcs::SweepResult &sweep);

/** 64-bit FNV-1a of a string (the sweep digest). */
std::uint64_t digest(const std::string &text);

/**
 * digest() of SweepResult::toJson, or 0 when a weighted speedup fails
 * the gate: toJson takes each scheme's gmean, which aborts on a
 * non-positive value, and a failed job must be reported, not crash.
 */
std::uint64_t sweepDigest(const cdcs::SweepResult &sweep);

} // namespace perfbench

#endif // PERFBENCH_GATE_HH
