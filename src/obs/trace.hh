/**
 * @file
 * Execution tracer behind the `--set trace=<file>` study knob
 * (CDCS_TRACE). Emits Chrome trace-event JSON — duration (B/E) spans
 * for ExperimentRunner jobs and the phase timers (access, reconfig,
 * result-store I/O), plus instant events at epoch boundaries — tagged
 * with a stable per-thread track id, loadable in Perfetto or
 * chrome://tracing.
 *
 * Events buffer per thread (same never-freed thread-local block
 * pattern as the StatRegistry shards) and are serialized once at
 * close(), so
 * tracing perturbs the host only by the clock reads inside each span.
 * Disabled (the default) every hook is a single relaxed atomic load,
 * and no file is ever opened.
 */

#ifndef CDCS_OBS_TRACE_HH
#define CDCS_OBS_TRACE_HH

#include <atomic>
#include <string>

namespace cdcs
{

class Tracer
{
  public:
    static bool
    enabled()
    {
        // Acquire pairs with the release store in open(): a thread
        // that sees the flag also sees the trace start timestamp.
        return enabledFlag.load(std::memory_order_acquire);
    }

    /**
     * Start tracing into `path` (written at close()). Calling open
     * while already open is a user error (fatal).
     */
    static void open(const std::string &path);

    /**
     * Stop tracing and write the JSON file. Returns false when the
     * file could not be written. No-op (true) when never opened.
     */
    static bool close();

    /**
     * Label this thread's track ("worker-3"). Sticky across
     * open/close so pool threads can name themselves at spawn even if
     * tracing starts later.
     */
    static void nameThread(const std::string &name);

    /** Begin a duration span on this thread's track. */
    static void begin(const std::string &name);

    /** End the innermost span opened under `name`. */
    static void end(const std::string &name);

    /** A zero-duration marker (epoch boundaries). */
    static void instant(const std::string &name);

  private:
    static inline std::atomic<bool> enabledFlag{false};
};

/** RAII span: begins at construction, ends at destruction. A span
 * constructed with an empty name (or while tracing is off) is inert. */
class TraceSpan
{
  public:
    explicit TraceSpan(std::string name_) : name(std::move(name_))
    {
        active = Tracer::enabled() && !name.empty();
        if (active)
            Tracer::begin(name);
    }

    ~TraceSpan()
    {
        if (active)
            Tracer::end(name);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    std::string name;
    bool active;
};

} // namespace cdcs

#endif // CDCS_OBS_TRACE_HH
