#include "sim/result_store.hh"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
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

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; i++)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        out += s;
    }

    void
    f64Vec(const std::vector<double> &xs)
    {
        u32(static_cast<std::uint32_t>(xs.size()));
        for (double x : xs)
            f64(x);
    }

  private:
    std::string &out;
};

/** Bounds-checked reader; every getter fails on truncation. */
class ByteReader
{
  public:
    ByteReader(const char *data_, std::size_t size_)
        : data(data_), size(size_)
    {
    }

    bool
    u32(std::uint32_t *v)
    {
        if (size - pos < 4)
            return false;
        *v = 0;
        for (int i = 0; i < 4; i++) {
            *v |= static_cast<std::uint32_t>(
                      static_cast<unsigned char>(data[pos + i]))
                << (8 * i);
        }
        pos += 4;
        return true;
    }

    bool
    u64(std::uint64_t *v)
    {
        if (size - pos < 8)
            return false;
        *v = 0;
        for (int i = 0; i < 8; i++) {
            *v |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(data[pos + i]))
                << (8 * i);
        }
        pos += 8;
        return true;
    }

    bool
    i64(std::int64_t *v)
    {
        std::uint64_t raw;
        if (!u64(&raw))
            return false;
        *v = static_cast<std::int64_t>(raw);
        return true;
    }

    bool
    f64(double *v)
    {
        std::uint64_t raw;
        if (!u64(&raw))
            return false;
        *v = std::bit_cast<double>(raw);
        return true;
    }

    bool
    str(std::string *s)
    {
        std::uint32_t len;
        if (!u32(&len) || size - pos < len)
            return false;
        s->assign(data + pos, len);
        pos += len;
        return true;
    }

    bool
    f64Vec(std::vector<double> *xs)
    {
        std::uint32_t count;
        if (!u32(&count) || (size - pos) / 8 < count)
            return false;
        xs->resize(count);
        for (std::uint32_t i = 0; i < count; i++) {
            if (!f64(&(*xs)[i]))
                return false;
        }
        return true;
    }

    std::size_t position() const { return pos; }
    std::size_t remaining() const { return size - pos; }

  private:
    const char *data;
    std::size_t size;
    std::size_t pos = 0;
};

void
serializeResult(ByteWriter &w, const RunResult &r)
{
    w.f64Vec(r.threadInstrs);
    w.f64Vec(r.threadCycles);
    w.f64Vec(r.threadIpc);
    w.f64Vec(r.procThroughput);
    w.f64(r.totalInstrs);
    w.f64(r.wallCycles);
    w.u64(r.llcAccesses);
    w.u64(r.llcHits);
    w.u64(r.demandMoves);
    w.u64(r.moveProbes);
    w.u64(r.memAccesses);
    w.u64(r.instantMoved);
    w.u64(r.bulkInvalidated);
    w.u64(r.bgInvalidated);
    w.u64(r.pausedCycles);
    w.i64(r.reconfigs);
    w.f64(r.avgTimes.allocUs);
    w.f64(r.avgTimes.threadPlaceUs);
    w.f64(r.avgTimes.dataPlaceUs);
    w.f64(r.onChipLatSum);
    w.f64(r.offChipLatSum);
    for (std::uint64_t hops : r.trafficFlitHops)
        w.u64(hops);
    w.u32(static_cast<std::uint32_t>(r.nocLinks.size()));
    for (const NocLinkStat &link : r.nocLinks) {
        w.u32(link.src);
        w.u32(link.dst);
        w.i64(link.memCtrl);
        w.u64(link.flits);
        w.f64(link.util);
        w.f64(link.waitCycles);
        w.u32(link.far ? 1 : 0);
    }
    w.u64(r.memMigratedPages);
    w.f64(r.energy.staticE);
    w.f64(r.energy.core);
    w.f64(r.energy.net);
    w.f64(r.energy.llc);
    w.f64(r.energy.mem);
    w.f64Vec(r.ipcTrace);
    w.u64(r.ipcBinCycles);
    w.u32(static_cast<std::uint32_t>(r.memCtrlAccesses.size()));
    for (std::uint64_t n : r.memCtrlAccesses)
        w.u64(n);
    w.u32(static_cast<std::uint32_t>(r.epochTrace.size()));
    for (const EpochRecord &rec : r.epochTrace) {
        w.i64(rec.epoch);
        w.i64(rec.activeThreads);
        w.i64(rec.churnDelta);
        w.f64(rec.aggIpc);
        w.i64(rec.placementMoves);
        w.u64(rec.movedLines);
        w.u32(static_cast<std::uint32_t>(rec.stats.size()));
        for (std::uint64_t v : rec.stats)
            w.u64(v);
    }
    w.u32(static_cast<std::uint32_t>(r.statNames.size()));
    for (const std::string &name : r.statNames)
        w.str(name);
    // Far-memory tier (format 4); appended so the field order above
    // matches format 3 byte for byte up to this point.
    w.u64(r.farMemAccesses);
    w.f64(r.farOffChipLatSum);
    w.u64(r.tierPromotions);
    w.u64(r.tierDemotions);
    w.u64(r.farResidentPages);
    w.u64(r.tieredPages);
}

bool
deserializeResult(ByteReader &r, RunResult *out)
{
    std::int64_t reconfigs;
    std::uint32_t num_links;
    if (!(r.f64Vec(&out->threadInstrs) &&
          r.f64Vec(&out->threadCycles) && r.f64Vec(&out->threadIpc) &&
          r.f64Vec(&out->procThroughput) && r.f64(&out->totalInstrs) &&
          r.f64(&out->wallCycles) && r.u64(&out->llcAccesses) &&
          r.u64(&out->llcHits) && r.u64(&out->demandMoves) &&
          r.u64(&out->moveProbes) && r.u64(&out->memAccesses) &&
          r.u64(&out->instantMoved) && r.u64(&out->bulkInvalidated) &&
          r.u64(&out->bgInvalidated) && r.u64(&out->pausedCycles) &&
          r.i64(&reconfigs) && r.f64(&out->avgTimes.allocUs) &&
          r.f64(&out->avgTimes.threadPlaceUs) &&
          r.f64(&out->avgTimes.dataPlaceUs) &&
          r.f64(&out->onChipLatSum) && r.f64(&out->offChipLatSum))) {
        return false;
    }
    out->reconfigs = static_cast<int>(reconfigs);
    for (std::uint64_t &hops : out->trafficFlitHops) {
        if (!r.u64(&hops))
            return false;
    }
    if (!r.u32(&num_links))
        return false;
    out->nocLinks.resize(num_links);
    for (NocLinkStat &link : out->nocLinks) {
        std::uint32_t src, dst, far;
        std::int64_t ctrl;
        if (!(r.u32(&src) && r.u32(&dst) && r.i64(&ctrl) &&
              r.u64(&link.flits) && r.f64(&link.util) &&
              r.f64(&link.waitCycles) && r.u32(&far))) {
            return false;
        }
        link.src = static_cast<TileId>(src);
        link.dst = static_cast<TileId>(dst);
        link.memCtrl = static_cast<int>(ctrl);
        link.far = far != 0;
    }
    if (!(r.u64(&out->memMigratedPages) && r.f64(&out->energy.staticE) &&
          r.f64(&out->energy.core) && r.f64(&out->energy.net) &&
          r.f64(&out->energy.llc) && r.f64(&out->energy.mem) &&
          r.f64Vec(&out->ipcTrace) && r.u64(&out->ipcBinCycles))) {
        return false;
    }
    std::uint32_t num_ctrls;
    if (!r.u32(&num_ctrls) || r.remaining() / 8 < num_ctrls)
        return false;
    out->memCtrlAccesses.resize(num_ctrls);
    for (std::uint64_t &n : out->memCtrlAccesses) {
        if (!r.u64(&n))
            return false;
    }
    std::uint32_t num_epochs;
    if (!r.u32(&num_epochs) || r.remaining() / 48 < num_epochs)
        return false;
    out->epochTrace.resize(num_epochs);
    for (EpochRecord &rec : out->epochTrace) {
        std::int64_t epoch, active, delta, moves;
        if (!(r.i64(&epoch) && r.i64(&active) && r.i64(&delta) &&
              r.f64(&rec.aggIpc) && r.i64(&moves) &&
              r.u64(&rec.movedLines))) {
            return false;
        }
        rec.epoch = static_cast<int>(epoch);
        rec.activeThreads = static_cast<int>(active);
        rec.churnDelta = static_cast<int>(delta);
        rec.placementMoves = static_cast<int>(moves);
        std::uint32_t num_stats;
        if (!r.u32(&num_stats) || r.remaining() / 8 < num_stats)
            return false;
        rec.stats.resize(num_stats);
        for (std::uint64_t &v : rec.stats) {
            if (!r.u64(&v))
                return false;
        }
    }
    std::uint32_t num_names;
    if (!r.u32(&num_names) || r.remaining() / 4 < num_names)
        return false;
    out->statNames.resize(num_names);
    for (std::string &name : out->statNames) {
        if (!r.str(&name))
            return false;
    }
    if (!(r.u64(&out->farMemAccesses) &&
          r.f64(&out->farOffChipLatSum) &&
          r.u64(&out->tierPromotions) && r.u64(&out->tierDemotions) &&
          r.u64(&out->farResidentPages) && r.u64(&out->tieredPages))) {
        return false;
    }
    return true;
}

bool
makeDirs(const std::string &path)
{
    std::string partial;
    partial.reserve(path.size());
    for (std::size_t i = 0; i <= path.size(); i++) {
        if (i < path.size() && path[i] != '/') {
            partial.push_back(path[i]);
            continue;
        }
        if (!partial.empty() && partial != ".") {
            if (::mkdir(partial.c_str(), 0755) != 0 &&
                errno != EEXIST) {
                return false;
            }
        }
        if (i < path.size())
            partial.push_back('/');
    }
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
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
    if (!makeDirs(root)) {
        std::fprintf(stderr,
                     "[result-store] cannot create '%s': %s — "
                     "persistent cache disabled\n",
                     root.c_str(), std::strerror(errno));
        return;
    }
    const std::string lock_path = root + "/.lock";
    lockFd = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
    if (lockFd < 0) {
        std::fprintf(stderr,
                     "[result-store] cannot open '%s': %s — "
                     "persistent cache disabled\n",
                     lock_path.c_str(), std::strerror(errno));
        return;
    }
    usable = true;
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
    if (!usable)
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
    tail.u64(&want_sum);
    if (fnv1a64(blob.data(), body, fnvOffset) != want_sum)
        return reject(true);

    ByteReader r(blob.data(), body);
    std::uint32_t magic, format;
    std::uint64_t stored_hash;
    std::string stored_version, stored_key;
    if (!(r.u32(&magic) && r.u32(&format) && r.u64(&stored_hash) &&
          r.str(&stored_version) && r.str(&stored_key))) {
        return reject(true);
    }
    if (magic != recordMagic || format != recordFormat ||
        stored_hash != hash) {
        return reject(true);
    }
    // A stale version or a (vanishingly unlikely) hash collision is a
    // well-formed record that simply isn't ours: a miss, not corrupt.
    if (stored_version != version || stored_key != key)
        return reject(false);
    RunResult res;
    if (!deserializeResult(r, &res) || r.remaining() != 0)
        return reject(true);

    *out = std::move(res);
    std::lock_guard<std::mutex> lock(mu);
    counters.hits++;
    return true;
}

bool
ResultStore::save(const std::string &key, const RunResult &result)
{
    if (!usable)
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
    serializeResult(w, result);
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
