#include "obs/phase_timer.hh"

#include <cstddef>
#include <cstdint>

#include "obs/trace.hh"

namespace cdcs
{

namespace
{

// Registered at static init, like every counter, so a `stats=time`
// selection resolves them before the first timer fires.
const StatId kPhaseStats[] = {
    StatRegistry::counter("time.access_ns"),
    StatRegistry::counter("time.reconfig_ns"),
    StatRegistry::counter("time.store_io_ns"),
};

const char *const kPhaseSpans[] = {"access", "reconfig", "cache-io"};

} // anonymous namespace

StatId
phaseStat(Phase phase)
{
    return kPhaseStats[static_cast<std::size_t>(phase)];
}

PhaseTimer::PhaseTimer(Phase phase_)
    : phase(phase_), counting(StatRegistry::enabled()),
      tracing(Tracer::enabled())
{
    if (counting)
        start = std::chrono::steady_clock::now(); // lint:allow(wallclock)
    if (tracing)
        Tracer::begin(kPhaseSpans[static_cast<std::size_t>(phase)]);
}

PhaseTimer::~PhaseTimer()
{
    if (tracing)
        Tracer::end(kPhaseSpans[static_cast<std::size_t>(phase)]);
    if (!counting)
        return;
    const auto elapsed = // lint:allow(wallclock)
        std::chrono::steady_clock::now() - start;
    StatRegistry::add(
        phaseStat(phase),
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                elapsed)
                .count()));
}

} // namespace cdcs
