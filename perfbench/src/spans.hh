/**
 * @file
 * In-memory span recorder for the traced run. The benchmark wraps its
 * own calls into each simulator layer in one span per layer per
 * replay chunk (never per call), accumulates each layer's busy time,
 * and optionally keeps the begin/end events to write as Chrome
 * trace-event JSON when the run ends. With timing off a span reads no
 * clock at all, which is the baseline the tracing overhead is
 * measured against.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** The simulator layers the replay times, one span name each. */
enum class Layer : int
{
    Workload,       ///< WorkloadMix::nextAccess
    Monitor,        ///< SampledMonitor::access
    NucaMap,        ///< NucaPolicy::map / partitionTag
    NucaWalk,       ///< NucaPolicy::advanceWalk
    CacheProbe,     ///< PartitionedBank::probeHit
    CacheFill,      ///< fill / extractForMove / installMoved / flush
    MemPlace,       ///< MemPlacementPolicy::placementFor
    NetQuery,       ///< NocModel latency queries
    NetAccount,     ///< NocModel traffic accounting
    NetEpoch,       ///< NocModel::epochUpdate
    MemEpoch,       ///< placement + tiering epochUpdate
    RuntimeEpoch,   ///< NucaPolicy::endEpoch (the reconfiguration)
    Count
};

constexpr int kLayers = static_cast<int>(Layer::Count);

const char *layerName(Layer layer);

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    SpanRecorder();

    /**
     * `timing`: read clocks and accumulate layer busy time. `keep`:
     * also keep every begin/end event for the Chrome trace.
     */
    void
    configure(bool timing, bool keep)
    {
        timingOn = timing;
        keepOn = timing && keep;
    }

    bool timing() const { return timingOn; }

    /** Open a named (non-layer) span, e.g. one replayed job. */
    void begin(const std::string &name);
    /** Close the innermost span opened by begin(). */
    void end();

    /** Busy nanoseconds and span count accumulated per layer. */
    double layerNs(Layer layer) const
    {
        return busyNs[static_cast<int>(layer)];
    }

    /** Accumulate one closed layer span. */
    void
    addLayer(Layer layer, Clock::time_point t0, Clock::time_point t1)
    {
        busyNs[static_cast<int>(layer)] +=
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        if (keepOn) {
            push(static_cast<std::uint32_t>(layer), 'B', t0);
            push(static_cast<std::uint32_t>(layer), 'E', t1);
        }
    }

    /** Events kept so far. */
    std::size_t events() const { return trace.size(); }

    /** Write the kept events as Chrome trace JSON; false on error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Event
    {
        std::uint32_t name;
        char ph;
        double tsUs;
    };

    void push(std::uint32_t name, char ph, Clock::time_point t);

    Clock::time_point origin;
    bool timingOn = false;
    bool keepOn = false;
    std::array<double, kLayers> busyNs{};
    /// Span names: the layers first, then begin() names.
    std::vector<std::string> names;
    std::vector<std::uint32_t> open;
    std::vector<Event> trace;
};

/** One layer span: times the enclosing scope when timing is on. */
class LayerSpan
{
  public:
    LayerSpan(SpanRecorder &recorder, Layer layer)
        : rec(recorder), which(layer), on(recorder.timing())
    {
        if (on)
            t0 = SpanRecorder::Clock::now();
    }

    ~LayerSpan()
    {
        if (on)
            rec.addLayer(which, t0, SpanRecorder::Clock::now());
    }

    LayerSpan(const LayerSpan &) = delete;
    LayerSpan &operator=(const LayerSpan &) = delete;

  private:
    SpanRecorder &rec;
    Layer which;
    bool on;
    SpanRecorder::Clock::time_point t0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
