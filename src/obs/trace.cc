#include "obs/trace.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <vector>

#include "common/log.hh"

namespace cdcs
{

namespace
{

using Clock = std::chrono::steady_clock;

struct Event
{
    std::uint64_t ts_ns;  // since trace open
    std::string name;
    char ph;              // 'B', 'E', or 'i'
};

struct ThreadBuf
{
    int tid = 0;
    std::string threadName;
    std::vector<Event> events;
};

struct TraceState
{
    std::mutex mu;
    std::vector<ThreadBuf *> bufs;  // never freed; bounded by threads
    std::string path;
    std::FILE *file = nullptr;      // open between open() and close()
    /**
     * Trace-start time as nanoseconds on the steady clock, atomic
     * because record() reads it without the mutex: the release store
     * of the enabled flag publishes it, but a close()/open() cycle
     * may rewrite it while a straggler thread sits between its
     * enabled() check and the read.
     */
    std::atomic<std::int64_t> startNs{0};
    int nextTid = 0;
};

// Heap-allocated and never destroyed: ThreadBufs must stay
// reachable from a static root at exit, or LeakSanitizer reports
// the (bounded, intentional) per-thread blocks as leaks.
TraceState &
state()
{
    static TraceState *s = new TraceState();
    return *s;
}

ThreadBuf &
localBuf()
{
    thread_local ThreadBuf *buf = []() {
        auto *fresh = new ThreadBuf();
        auto &s = state();
        std::lock_guard<std::mutex> lock(s.mu);
        fresh->tid = s.nextTid++;
        s.bufs.push_back(fresh);
        return fresh;
    }();
    return *buf;
}

void
record(char ph, const std::string &name)
{
    auto &s = state();
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch()) // lint:allow(wallclock)
            .count();
    // Safe unlocked: open() publishes startNs via the release store
    // the caller's enabled() check acquired.
    const std::int64_t since_ns =
        now_ns - s.startNs.load(std::memory_order_relaxed);
    Event ev;
    ev.ts_ns = since_ns > 0 ? static_cast<std::uint64_t>(since_ns) : 0;
    ev.name = name;
    ev.ph = ph;
    localBuf().events.push_back(std::move(ev));
}

/** Minimal JSON string escape (names are ASCII identifiers). */
std::string
jsonEscape(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out.push_back(' ');
        } else {
            out.push_back(c);
        }
    }
    return out;
}

} // anonymous namespace

bool
Tracer::open(const std::string &path, std::string *err)
{
    auto &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    if (enabled())
        fatal("trace already open (%s)", s.path.c_str());
    // As with jsonDir and cacheDir, a missing directory is created; a
    // failure shows in the fopen below.
    const std::filesystem::path dir =
        std::filesystem::path(path).parent_path();
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
    }
    s.file = std::fopen(path.c_str(), "wb");
    if (s.file == nullptr) {
        if (err != nullptr)
            *err = "cannot write trace file '" + path +
                "': " + std::strerror(errno);
        return false;
    }
    s.path = path;
    s.startNs.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch()) // lint:allow(wallclock)
            .count(),
        std::memory_order_relaxed);
    for (ThreadBuf *buf : s.bufs)
        buf->events.clear();
    enabledFlag.store(true, std::memory_order_release);
    return true;
}

bool
Tracer::close()
{
    auto &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    if (!enabled())
        return true;
    // Workers are idle by the time the driver closes the trace (the
    // sweep barriers guarantee it), so no span is mid-flight.
    enabledFlag.store(false, std::memory_order_relaxed);

    std::FILE *f = s.file;
    s.file = nullptr;
    std::fprintf(f, "[\n");
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":0,\"args\":{\"name\":\"cdcs\"}}");
    for (const ThreadBuf *buf : s.bufs) {
        if (!buf->threadName.empty()) {
            std::fprintf(
                f,
                ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                buf->tid, jsonEscape(buf->threadName).c_str());
        }
        for (const Event &ev : buf->events) {
            // Chrome trace ts is in microseconds; keep ns precision.
            std::fprintf(f,
                         ",\n{\"name\":\"%s\",\"ph\":\"%c\","
                         "\"ts\":%llu.%03u,\"pid\":1,\"tid\":%d",
                         jsonEscape(ev.name).c_str(), ev.ph,
                         static_cast<unsigned long long>(ev.ts_ns /
                                                         1000),
                         static_cast<unsigned>(ev.ts_ns % 1000),
                         buf->tid);
            if (ev.ph == 'i')
                std::fprintf(f, ",\"s\":\"t\"");
            std::fprintf(f, "}");
        }
    }
    std::fprintf(f, "\n]\n");
    const bool ok = std::fclose(f) == 0;
    if (!ok)
        warn("cannot write trace file %s", s.path.c_str());
    for (ThreadBuf *buf : s.bufs)
        buf->events.clear();
    s.path.clear();
    return ok;
}

void
Tracer::nameThread(const std::string &name)
{
    auto &s = state();
    ThreadBuf &buf = localBuf();
    std::lock_guard<std::mutex> lock(s.mu);
    buf.threadName = name;
}

void
Tracer::begin(const std::string &name)
{
    if (enabled())
        record('B', name);
}

void
Tracer::end(const std::string &name)
{
    if (enabled())
        record('E', name);
}

void
Tracer::instant(const std::string &name)
{
    if (enabled())
        record('i', name);
}

} // namespace cdcs
