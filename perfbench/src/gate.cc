#include "gate.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench
{

namespace
{

std::string
format(const char *fmt, std::uint64_t a, std::uint64_t b)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), fmt, a, b);
    return buf;
}

} // namespace

std::vector<std::string>
checkRun(const cdcs::RunResult &run, std::uint64_t expected_accesses)
{
    std::vector<std::string> bad;
    if (run.llcAccesses != expected_accesses) {
        bad.push_back(format("llcAccesses %" PRIu64 " != expected %" PRIu64,
                             run.llcAccesses, expected_accesses));
    }
    if (run.llcHits > run.llcAccesses) {
        bad.push_back(format("llcHits %" PRIu64 " > llcAccesses %" PRIu64,
                             run.llcHits, run.llcAccesses));
    }
    std::uint64_t ctrl_sum = 0;
    for (std::uint64_t n : run.memCtrlAccesses)
        ctrl_sum += n;
    if (run.memAccesses != ctrl_sum) {
        bad.push_back(format("memAccesses %" PRIu64
                             " != sum of memCtrlAccesses %" PRIu64,
                             run.memAccesses, ctrl_sum));
    }
    if (run.farMemAccesses > run.memAccesses) {
        bad.push_back(format("farMemAccesses %" PRIu64
                             " > memAccesses %" PRIu64,
                             run.farMemAccesses, run.memAccesses));
    }
    if (run.tierPromotions != run.tierDemotions) {
        bad.push_back(format("tierPromotions %" PRIu64
                             " != tierDemotions %" PRIu64,
                             run.tierPromotions, run.tierDemotions));
    }
    return bad;
}

std::vector<std::string>
checkWs(double ws)
{
    if (std::isfinite(ws) && ws > 0.0)
        return {};
    char buf[64];
    std::snprintf(buf, sizeof(buf), "weighted speedup %g", ws);
    return {buf};
}

bool
wsValid(const cdcs::SweepResult &sweep)
{
    for (const std::vector<double> &row : sweep.ws) {
        for (double ws : row) {
            if (!checkWs(ws).empty())
                return false;
        }
    }
    return true;
}

std::uint64_t
digest(const std::string &text)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

std::uint64_t
sweepDigest(const cdcs::SweepResult &sweep)
{
    return wsValid(sweep) ? digest(sweep.toJson()) : 0;
}

} // namespace perfbench
