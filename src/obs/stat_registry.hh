/**
 * @file
 * Process-wide hierarchical statistic registry behind the `--set
 * stats=<filter>` study knob and the `--set timing=1` footer.
 * Subsystems register named per-run counters once (typically from
 * namespace-scope initializers, so every stat exists before main()),
 * then bump them from the run's own thread. Counters are sharded per
 * thread: the increment is a relaxed add into a thread-local slot
 * array, and collection points fold the shards.
 *
 * Disabled (the default) a bump is a single relaxed atomic load, so
 * instrumented paths pay nothing measurable and stats never influence
 * simulated results — which is why the `stats` knobs stay out of the
 * runner cache key.
 *
 * Names are dot-hierarchical ("noc.link_flits", "time.access_ns");
 * the `stats=` filter selects whole subtrees by comma-separated
 * prefixes, or with "1"/"all" every counter except the wall-clock
 * `time.*` subtree (obs/phase_timer.hh).
 */

#ifndef CDCS_OBS_STAT_REGISTRY_HH
#define CDCS_OBS_STAT_REGISTRY_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cdcs
{

/** Index of a registered stat slot; stable for the process lifetime. */
using StatId = int;

class StatRegistry
{
  public:
    /**
     * Fixed slot budget. Registration is rare (a few dozen stats at
     * static init); a fixed array keeps the thread-local shard a flat
     * block with no growth races against concurrent bumps.
     */
    static constexpr std::size_t maxSlots = 128;

    /** Folded (or per-thread) values of every registered slot. */
    struct Snapshot
    {
        std::array<std::uint64_t, maxSlots> v{};

        std::uint64_t
        operator[](StatId id) const
        {
            return v[static_cast<std::size_t>(id)];
        }
    };

    static bool
    enabled()
    {
        return enabledFlag.load(std::memory_order_relaxed);
    }

    static void setEnabled(bool on);

    /**
     * Register (or look up) the counter `name`. Idempotent: a second
     * registration of the same name returns the same id, so static
     * initializers in different translation units cannot collide.
     */
    static StatId counter(const std::string &name);

    /** Add `n` to `id` in this thread's shard (no-op when disabled). */
    static void
    add(StatId id, std::uint64_t n = 1)
    {
        if (!enabled())
            return;
        local().v[static_cast<std::size_t>(id)].fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Number of slots registered so far. */
    static std::size_t numStats();

    /** Name of slot `id` ("" when unregistered). */
    static std::string name(StatId id);

    /** Sum every thread's shard (process-wide totals). */
    static Snapshot snapshot();

    /**
     * This thread's shard only. Each study run executes on a single
     * worker thread start to finish, so per-epoch deltas of the local
     * shard attribute stats to the right run even while other workers
     * simulate concurrently.
     */
    static Snapshot localSnapshot();

    /**
     * Resolve a `stats=` filter into slot ids, sorted by name so the
     * exported column order is deterministic. "" and "0" select
     * nothing; "1", "all", "true", "on" select everything but the
     * `time.*` subtree, whose wall-clock values would make the trace
     * differ run to run; anything else is a comma-separated list of
     * names or dot-prefixes ("noc,runtime.reconfigs" matches noc.*
     * and runtime.reconfigs exactly; "time" selects the timers).
     */
    static std::vector<StatId> select(const std::string &filter);

    /** Implementation detail, public only so the registry block in
     * stat_registry.cc can hold `Shard *` without friendship. */
    struct Shard
    {
        std::array<std::atomic<std::uint64_t>, maxSlots> v{};
    };

  private:
    /**
     * This thread's shard, registered globally on first use and never
     * freed (snapshot() must still see counts from exited workers;
     * the leak is bounded by the thread count).
     */
    static Shard &local();

    static inline std::atomic<bool> enabledFlag{false};
};

} // namespace cdcs

#endif // CDCS_OBS_STAT_REGISTRY_HH
