#include "sim/result_store.hh"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/log.hh"

// CMake injects the `git describe` string for this source file only;
// builds outside a git checkout (or without the definition) degrade
// to a fixed salt that still invalidates against real versions.
#ifndef CDCS_CODE_VERSION
#define CDCS_CODE_VERSION "unknown"
#endif

namespace cdcs
{

namespace
{

constexpr std::uint32_t recordMagic = 0x43444352; // "CDCR"
// Format 4: records carry the far-memory-tier fields (per-tier
// access/latency counters, tier promotion/demotion totals, and the
// NocLinkStat far flag). Older records are rejected.
constexpr std::uint32_t recordFormat = 4;

std::uint64_t
fnv1a64(const void *data, std::size_t size, std::uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; i++) {
        hash ^= bytes[i];
        hash *= 0x100000001B3ull;
    }
    return hash;
}

constexpr std::uint64_t fnvOffset = 0xCBF29CE484222325ull;

/** Append-only little-endian byte writer. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::string &out_) : out(out_) {}

    void u32(std::uint32_t v) { put(v, 4); }
    void u64(std::uint64_t v) { put(v, 8); }
    void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v), 8); }
    void f64(double v) { put(std::bit_cast<std::uint64_t>(v), 8); }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        out += s;
    }

    /** A u32 element count, then every element through `each`. */
    template <typename T, typename Each>
    void
    seq(const std::vector<T> &xs, std::size_t /*min_bytes*/, Each each)
    {
        u32(static_cast<std::uint32_t>(xs.size()));
        for (const T &x : xs)
            each(x);
    }

  private:
    void
    put(std::uint64_t v, int bytes)
    {
        for (int i = 0; i < bytes; i++)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }

    std::string &out;
};

/**
 * Bounds-checked reader with the writer's method names. A read past
 * the end, or a sequence count the remaining bytes cannot hold at
 * `min_bytes` per element, fails the reader for good (ok() turns
 * false and every later read yields zeros) before anything is
 * allocated.
 */
class ByteReader
{
  public:
    ByteReader(const char *data_, std::size_t size_)
        : data(data_), size(size_)
    {
    }

    template <typename T>
    void
    u32(T &v)
    {
        v = static_cast<T>(get(4));
    }

    void u64(std::uint64_t &v) { v = get(8); }

    template <typename T>
    void
    i64(T &v)
    {
        v = static_cast<T>(static_cast<std::int64_t>(get(8)));
    }

    void f64(double &v) { v = std::bit_cast<double>(get(8)); }

    void
    str(std::string &s)
    {
        const std::uint64_t len = get(4);
        if (!good || size - pos < len) {
            good = false;
            return;
        }
        s.assign(data + pos, len);
        pos += len;
    }

    template <typename T, typename Each>
    void
    seq(std::vector<T> &xs, std::size_t min_bytes, Each each)
    {
        const std::uint64_t count = get(4);
        if (!good || (size - pos) / min_bytes < count) {
            good = false;
            return;
        }
        xs.resize(count);
        for (T &x : xs)
            each(x);
    }

    bool ok() const { return good; }
    std::size_t remaining() const { return size - pos; }

  private:
    std::uint64_t
    get(std::size_t bytes)
    {
        if (!good || size - pos < bytes) {
            good = false;
            return 0;
        }
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < bytes; i++) {
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(data[pos + i]))
                << (8 * i);
        }
        pos += bytes;
        return v;
    }

    const char *data;
    std::size_t size;
    std::size_t pos = 0;
    bool good = true;
};

/**
 * The one field list of a record: save() runs it over a ByteWriter
 * and a const RunResult, load() over a ByteReader and a fresh one.
 * The far-tier fields (format 4) come last, so everything before
 * them matches format 3 byte for byte. Each sequence names the
 * fewest bytes one element can take, which bounds its count.
 */
template <typename Io, typename Result>
void
transferResult(Io &io, Result &r)
{
    const auto f64 = [&io](auto &x) { io.f64(x); };
    const auto u64 = [&io](auto &x) { io.u64(x); };
    io.seq(r.threadInstrs, 8, f64);
    io.seq(r.threadCycles, 8, f64);
    io.seq(r.threadIpc, 8, f64);
    io.seq(r.procThroughput, 8, f64);
    io.f64(r.totalInstrs);
    io.f64(r.wallCycles);
    io.u64(r.llcAccesses);
    io.u64(r.llcHits);
    io.u64(r.demandMoves);
    io.u64(r.moveProbes);
    io.u64(r.memAccesses);
    io.u64(r.instantMoved);
    io.u64(r.bulkInvalidated);
    io.u64(r.bgInvalidated);
    io.u64(r.pausedCycles);
    io.i64(r.reconfigs);
    io.f64(r.avgTimes.allocUs);
    io.f64(r.avgTimes.threadPlaceUs);
    io.f64(r.avgTimes.dataPlaceUs);
    io.f64(r.onChipLatSum);
    io.f64(r.offChipLatSum);
    for (auto &hops : r.trafficFlitHops)
        io.u64(hops);
    io.seq(r.nocLinks, 44, [&io](auto &link) {
        io.u32(link.src);
        io.u32(link.dst);
        io.i64(link.memCtrl);
        io.u64(link.flits);
        io.f64(link.util);
        io.f64(link.waitCycles);
        io.u32(link.far);
    });
    io.u64(r.memMigratedPages);
    io.f64(r.energy.staticE);
    io.f64(r.energy.core);
    io.f64(r.energy.net);
    io.f64(r.energy.llc);
    io.f64(r.energy.mem);
    io.seq(r.ipcTrace, 8, f64);
    io.u64(r.ipcBinCycles);
    io.seq(r.memCtrlAccesses, 8, u64);
    io.seq(r.epochTrace, 52, [&io, &u64](auto &rec) {
        io.i64(rec.epoch);
        io.i64(rec.activeThreads);
        io.i64(rec.churnDelta);
        io.f64(rec.aggIpc);
        io.i64(rec.placementMoves);
        io.u64(rec.movedLines);
        io.seq(rec.stats, 8, u64);
    });
    io.seq(r.statNames, 4, [&io](auto &name) { io.str(name); });
    io.u64(r.farMemAccesses);
    io.f64(r.farOffChipLatSum);
    io.u64(r.tierPromotions);
    io.u64(r.tierDemotions);
    io.u64(r.farResidentPages);
    io.u64(r.tieredPages);
}

bool
readFile(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    out->clear();
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out->append(buf, n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

} // anonymous namespace

std::string
ResultStore::buildVersion()
{
    return CDCS_CODE_VERSION;
}

ResultStore::ResultStore(std::string dir, std::string version_)
    : root(std::move(dir)), version(std::move(version_))
{
    if (root.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(root, ec);
    if (ec) {
        failure = "cannot create '" + root + "': " + ec.message();
        return;
    }
    const std::string lock_path = root + "/.lock";
    lockFd = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
    if (lockFd < 0) {
        failure = "cannot open '" + lock_path +
            "': " + std::strerror(errno);
    }
}

ResultStore::~ResultStore()
{
    if (lockFd >= 0)
        ::close(lockFd);
}

std::uint64_t
ResultStore::keyHash(const std::string &key) const
{
    // Salt with the code version (and a separator so no version/key
    // pair can alias another): a rebuild re-keys every record.
    std::uint64_t hash =
        fnv1a64(version.data(), version.size(), fnvOffset);
    hash = fnv1a64("\0", 1, hash);
    return fnv1a64(key.data(), key.size(), hash);
}

std::string
ResultStore::recordPath(std::uint64_t hash) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "/%016llx.res",
                  static_cast<unsigned long long>(hash));
    return root + name;
}

bool
ResultStore::load(const std::string &key, RunResult *out)
{
    if (!ok())
        return false;
    const std::uint64_t hash = keyHash(key);
    std::string blob;
    if (!readFile(recordPath(hash), &blob)) {
        std::lock_guard<std::mutex> lock(mu);
        counters.misses++;
        return false;
    }

    const auto reject = [&](bool corrupt) {
        std::lock_guard<std::mutex> lock(mu);
        (corrupt ? counters.corrupt : counters.misses)++;
        return false;
    };

    if (blob.size() < 8)
        return reject(true);
    // The trailing checksum covers everything before it.
    const std::size_t body = blob.size() - 8;
    ByteReader tail(blob.data() + body, 8);
    std::uint64_t want_sum = 0;
    tail.u64(want_sum);
    if (fnv1a64(blob.data(), body, fnvOffset) != want_sum)
        return reject(true);

    ByteReader r(blob.data(), body);
    std::uint32_t magic = 0, format = 0;
    std::uint64_t stored_hash = 0;
    std::string stored_version, stored_key;
    r.u32(magic);
    r.u32(format);
    r.u64(stored_hash);
    r.str(stored_version);
    r.str(stored_key);
    if (!r.ok())
        return reject(true);
    if (magic != recordMagic || format != recordFormat ||
        stored_hash != hash) {
        return reject(true);
    }
    // A stale version or a (vanishingly unlikely) hash collision is a
    // well-formed record that simply isn't ours: a miss, not corrupt.
    if (stored_version != version || stored_key != key)
        return reject(false);
    RunResult res;
    transferResult(r, res);
    if (!r.ok() || r.remaining() != 0)
        return reject(true);

    *out = std::move(res);
    std::lock_guard<std::mutex> lock(mu);
    counters.hits++;
    return true;
}

bool
ResultStore::save(const std::string &key, const RunResult &result)
{
    if (!ok())
        return false;
    const std::uint64_t hash = keyHash(key);

    std::string blob;
    blob.reserve(1024);
    ByteWriter w(blob);
    w.u32(recordMagic);
    w.u32(recordFormat);
    w.u64(hash);
    w.str(version);
    w.str(key);
    transferResult(w, result);
    w.u64(fnv1a64(blob.data(), blob.size(), fnvOffset));

    const std::string path = recordPath(hash);
    char tmp_name[64];
    std::snprintf(tmp_name, sizeof(tmp_name),
                  "/.tmp-%016llx-%ld",
                  static_cast<unsigned long long>(hash),
                  static_cast<long>(::getpid()));
    const std::string tmp = root + tmp_name;

    // Advisory writer lock: concurrent processes serialize their
    // stage-and-rename, so two writers of the same cell cannot
    // interleave tmp-file writes (the pid-suffixed names already keep
    // them apart; the lock makes the overwrite order well-defined).
    ::flock(lockFd, LOCK_EX);
    const bool existed = ::access(path.c_str(), F_OK) == 0;
    bool ok = false;
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f != nullptr) {
        ok = std::fwrite(blob.data(), 1, blob.size(), f) ==
            blob.size();
        ok = std::fclose(f) == 0 && ok;
        if (ok)
            ok = std::rename(tmp.c_str(), path.c_str()) == 0;
        if (!ok)
            ::unlink(tmp.c_str());
    }
    ::flock(lockFd, LOCK_UN);

    std::lock_guard<std::mutex> lock(mu);
    if (ok) {
        counters.writes++;
        if (existed)
            counters.evictions++;
    }
    return ok;
}

ResultStoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

} // namespace cdcs
