#include "spans.hh"

#include <cstdio>

namespace perfbench
{

const char *
layerName(Layer layer)
{
    static const char *const names[kLayers] = {
        "workload.next", "monitor.access", "nuca.map", "nuca.walk",
        "cache.probe", "cache.fill", "mem.place", "net.query",
        "net.account", "net.epoch_update", "mem.epoch_update",
        "runtime.end_epoch"};
    return names[static_cast<int>(layer)];
}

SpanRecorder::SpanRecorder() : origin(Clock::now())
{
    for (int l = 0; l < kLayers; l++)
        names.emplace_back(layerName(static_cast<Layer>(l)));
}

void
SpanRecorder::push(std::uint32_t name, char ph, Clock::time_point t)
{
    trace.push_back(
        {name, ph,
         std::chrono::duration<double, std::micro>(t - origin).count()});
}

void
SpanRecorder::begin(const std::string &name)
{
    if (!keepOn)
        return;
    names.push_back(name);
    open.push_back(static_cast<std::uint32_t>(names.size() - 1));
    push(open.back(), 'B', Clock::now());
}

void
SpanRecorder::end()
{
    if (!keepOn || open.empty())
        return;
    push(open.back(), 'E', Clock::now());
    open.pop_back();
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f,
                 "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": 1, \"args\": {\"name\": \"replay\"}}");
    for (const Event &ev : trace) {
        // Names are layer names or scheme labels: no characters that
        // need JSON escaping.
        std::fprintf(f,
                     ",\n{\"name\": \"%s\", \"ph\": \"%c\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f}",
                     names[ev.name].c_str(), ev.ph, ev.tsUs);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
