/**
 * @file
 * Tests for the persistent result store and the sharded runner built
 * on it: binary round-trip of every RunResult field, code-version
 * salting (a version bump re-keys the store), tolerance of truncated
 * and bit-flipped records (skipped as corrupt, never trusted),
 * concurrent writers, warm-start equivalence across runner instances
 * (simulating separate processes), shard partition completeness and
 * disjointness, and shard + merge == unsharded at the result level.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/experiment_runner.hh"
#include "sim/result_store.hh"

namespace cdcs
{
namespace
{

/**
 * A fresh store directory under the gtest temp dir for one test,
 * removed with everything in it when the test ends.
 */
class ScopedDir
{
  public:
    explicit ScopedDir(const std::string &tag)
        : dir(std::filesystem::path(::testing::TempDir()) /
              ("cdcs_store_test_" + tag + "_" +
               std::to_string(::getpid())))
    {
        // Start clean: drop records from a previous crashed run.
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }

    ~ScopedDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    ScopedDir(const ScopedDir &) = delete;
    ScopedDir &operator=(const ScopedDir &) = delete;

    const std::string &path() const { return dir; }

  private:
    std::string dir;
};

std::string
recordPathOf(const ResultStore &store, const std::string &dir,
             const std::string &key)
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.res",
                  static_cast<unsigned long long>(
                      store.keyHash(key)));
    return dir + "/" + name;
}

/** A RunResult with every field (incl. the vectors) non-default. */
RunResult
sampleResult(double salt)
{
    RunResult r;
    r.threadInstrs = {1e6 + salt, 2e6, 3e6};
    r.threadCycles = {4e6, 5e6 + salt, 6e6};
    r.threadIpc = {0.25, 0.4, 0.5};
    r.procThroughput = {0.75, 1.25 + salt};
    r.totalInstrs = 6e6 + salt;
    r.wallCycles = 6.5e6;
    r.llcAccesses = 123456;
    r.llcHits = 98765;
    r.demandMoves = 42;
    r.moveProbes = 77;
    r.memAccesses = 31415;
    r.farMemAccesses = 2718;
    r.instantMoved = 8;
    r.bulkInvalidated = 9;
    r.bgInvalidated = 10;
    r.pausedCycles = 2048;
    r.reconfigs = 3;
    r.avgTimes.allocUs = 1.5;
    r.avgTimes.threadPlaceUs = 2.5;
    r.avgTimes.dataPlaceUs = 3.5;
    r.onChipLatSum = 1e7 + salt;
    r.offChipLatSum = 2e7;
    r.farOffChipLatSum = 4e6 + salt;
    r.trafficFlitHops = {100, 200, 300};
    NocLinkStat link;
    link.src = 1;
    link.dst = 2;
    link.memCtrl = -1;
    link.flits = 555;
    link.util = 0.125;
    link.waitCycles = 0.0625;
    r.nocLinks.push_back(link);
    link.src = 3;
    link.dst = invalidTile;
    link.memCtrl = 1;
    link.far = true;
    r.nocLinks.push_back(link);
    r.memMigratedPages = 17;
    r.tierPromotions = 19;
    r.tierDemotions = 23;
    r.farResidentPages = 29;
    r.tieredPages = 31;
    r.energy.staticE = 0.1;
    r.energy.core = 0.2;
    r.energy.net = 0.3;
    r.energy.llc = 0.4;
    r.energy.mem = 0.5;
    r.ipcTrace = {0.5, 0.75, 1.0 + salt};
    r.ipcBinCycles = 10000;
    r.memCtrlAccesses = {11, 0, 13, 14};
    EpochRecord rec;
    rec.epoch = 0;
    rec.activeThreads = 3;
    rec.churnDelta = -1;
    rec.aggIpc = 1.5 + salt;
    rec.placementMoves = 2;
    rec.movedLines = 640;
    rec.stats = {7, 8};
    r.epochTrace.push_back(rec);
    rec.epoch = 1;
    rec.churnDelta = 2;
    rec.stats.clear();
    r.epochTrace.push_back(rec);
    r.statNames = {"mem.far_accesses", "noc.link_flits"};
    return r;
}

/**
 * `r` with its wall-clock reconfiguration step times cleared: two
 * separate simulations of one cell agree on every other field.
 */
RunResult
withoutWallClock(RunResult r)
{
    r.avgTimes = {};
    return r;
}

/** Whole contents of a file. */
std::string
readBytes(const std::string &path)
{
    std::string blob;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return blob;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        blob.append(buf, n);
    std::fclose(f);
    return blob;
}

void
writeBytes(const std::string &path, const std::string &blob)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(blob.data(), 1, blob.size(), f);
    std::fclose(f);
}

/** FNV-1a 64 over `size` bytes: the store's record checksum. */
std::uint64_t
fnv1a64(const char *data, std::size_t size)
{
    std::uint64_t hash = 0xCBF29CE484222325ull;
    for (std::size_t i = 0; i < size; i++) {
        hash ^= static_cast<unsigned char>(data[i]);
        hash *= 0x100000001B3ull;
    }
    return hash;
}

TEST(ResultStoreTest, RoundTripsEveryFieldAcrossInstances)
{
    const ScopedDir dir_scope("roundtrip");
    const std::string &dir = dir_scope.path();
    const RunResult written = sampleResult(0.5);
    {
        ResultStore store(dir, "v1");
        ASSERT_TRUE(store.ok());
        EXPECT_TRUE(store.save("cfg:a|mix:b", written));
    }
    // A second instance simulates a fresh process reading the disk.
    ResultStore reader(dir, "v1");
    ASSERT_TRUE(reader.ok());
    RunResult read;
    ASSERT_TRUE(reader.load("cfg:a|mix:b", &read));
    EXPECT_TRUE(read == written);
    EXPECT_EQ(reader.stats().hits, 1u);
    EXPECT_EQ(reader.stats().corrupt, 0u);

    // A different key misses.
    EXPECT_FALSE(reader.load("cfg:a|mix:c", &read));
    EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(ResultStoreTest, CodeVersionSaltInvalidatesRecords)
{
    const ScopedDir dir_scope("salt");
    const std::string &dir = dir_scope.path();
    {
        ResultStore v1(dir, "v1");
        ASSERT_TRUE(v1.save("key", sampleResult(0.0)));
    }
    // A new code version hashes to a different record name, so the
    // old record is simply invisible — a miss, not corruption.
    ResultStore v1(dir, "v1");
    ResultStore v2(dir, "v2");
    EXPECT_NE(v1.keyHash("key"), v2.keyHash("key"));
    RunResult out;
    EXPECT_FALSE(v2.load("key", &out));
    EXPECT_EQ(v2.stats().misses, 1u);
    EXPECT_EQ(v2.stats().corrupt, 0u);
    // The old version still finds its record untouched.
    EXPECT_TRUE(v1.load("key", &out));
}

TEST(ResultStoreTest, TruncatedAndCorruptRecordsAreSkipped)
{
    const ScopedDir dir_scope("corrupt");
    const std::string &dir = dir_scope.path();
    ResultStore store(dir, "v1");
    ASSERT_TRUE(store.save("key", sampleResult(1.0)));
    const std::string path = recordPathOf(store, dir, "key");

    // Read the record back, then truncate it (a torn write).
    std::string blob = readBytes(path);
    ASSERT_GT(blob.size(), 64u);
    writeBytes(path, blob.substr(0, blob.size() / 2));
    RunResult out;
    EXPECT_FALSE(store.load("key", &out));
    EXPECT_GE(store.stats().corrupt, 1u);

    // Restore with one flipped payload byte: checksum catches it.
    blob[blob.size() / 2] =
        static_cast<char>(blob[blob.size() / 2] ^ 0x40);
    writeBytes(path, blob);
    EXPECT_FALSE(store.load("key", &out));
    EXPECT_GE(store.stats().corrupt, 2u);

    // A rewrite heals the slot (counted as an eviction).
    EXPECT_TRUE(store.save("key", sampleResult(1.0)));
    EXPECT_TRUE(store.load("key", &out));
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_TRUE(out == sampleResult(1.0));
}

TEST(ResultStoreTest, RecordBytesArePinned)
{
    // Format 4 on disk, byte for byte: a change to the field list or
    // its encoding must bump recordFormat, not silently reuse it.
    const ScopedDir dir_scope("pinned");
    const std::string &dir = dir_scope.path();
    ResultStore store(dir, "v1");
    ASSERT_TRUE(store.save("cfg:a|mix:b", sampleResult(0.5)));
    const std::string blob =
        readBytes(recordPathOf(store, dir, "cfg:a|mix:b"));
    EXPECT_EQ(blob.size(), 735u);
    EXPECT_EQ(fnv1a64(blob.data(), blob.size()), 0x7b60055d09772755ull);
}

TEST(ResultStoreTest, OversizedLinkCountIsCorruptNotFatal)
{
    // A checksum-valid record (the store directory is shared) whose
    // nocLinks count claims ~4G links: load must reject it before
    // allocating anything.
    const ScopedDir dir_scope("links");
    const std::string &dir = dir_scope.path();
    const std::string version = "v1", key = "key";
    ResultStore store(dir, version);
    const RunResult r = sampleResult(0.0);
    ASSERT_TRUE(store.save(key, r));
    const std::string path = recordPathOf(store, dir, key);
    std::string blob = readBytes(path);

    // Format 4 layout up to the link count: magic, format, hash, the
    // version and key strings, four double vectors, 17 scalars and
    // the three flit-hop counters.
    std::size_t at = 4 + 4 + 8 + (4 + version.size()) + (4 + key.size());
    for (const auto *xs : {&r.threadInstrs, &r.threadCycles,
                           &r.threadIpc, &r.procThroughput})
        at += 4 + 8 * xs->size();
    at += 17 * 8 + 3 * 8;
    ASSERT_LT(at + 4, blob.size());
    ASSERT_EQ(static_cast<unsigned char>(blob[at]), r.nocLinks.size());
    const std::uint32_t huge = 0xFFFFFFF0u;
    for (int i = 0; i < 4; i++)
        blob[at + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
    const std::size_t body = blob.size() - 8;
    const std::uint64_t sum = fnv1a64(blob.data(), body);
    for (int i = 0; i < 8; i++)
        blob[body + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
    writeBytes(path, blob);

    RunResult out;
    EXPECT_FALSE(store.load(key, &out));
    EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(ResultStoreTest, ConcurrentWritersLeaveAConsistentStore)
{
    const ScopedDir dir_scope("writers");
    const std::string &dir = dir_scope.path();
    ResultStore store(dir, "v1");
    ASSERT_TRUE(store.ok());
    // Two threads hammer overlapping key sets; every record must end
    // up readable and checksum-clean (atomic rename + advisory lock).
    const auto writer = [&](int base) {
        for (int i = 0; i < 40; i++) {
            const std::string key =
                "key" + std::to_string((base + i) % 25);
            store.save(key, sampleResult(static_cast<double>(i)));
        }
    };
    std::thread a(writer, 0), b(writer, 10);
    a.join();
    b.join();
    for (int i = 0; i < 25; i++) {
        RunResult out;
        EXPECT_TRUE(store.load("key" + std::to_string(i), &out));
    }
    EXPECT_EQ(store.stats().corrupt, 0u);
}

// ------------------------------------------------------------------
// Runner-level: the persistent tier and sweep sharding.

SystemConfig
tinyConfig()
{
    SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.bankLines = 1024;
    cfg.accessesPerThreadEpoch = 2000;
    cfg.epochs = 3;
    cfg.warmupEpochs = 1;
    return cfg;
}

std::vector<SchemeSpec>
twoSchemes()
{
    return {SchemeSpec::snuca(), SchemeSpec::cdcs()};
}

ExperimentRunner::Options
storeOptions(const std::string &dir, int shard = 0, int shards = 1)
{
    ExperimentRunner::Options opts;
    opts.workers = 2;
    opts.cacheResults = true;
    opts.cacheDir = dir;
    opts.shardIndex = shard;
    opts.shardCount = shards;
    return opts;
}

MixSpec
mixOf(int m)
{
    return MixSpec::cpu(4, 2100 + m);
}

TEST(ShardedRunnerTest, WarmRunnerServesEveryCellFromTheStore)
{
    const ScopedDir dir_scope("warm");
    const std::string &dir = dir_scope.path();
    const SystemConfig cfg = tinyConfig();

    ExperimentRunner cold(storeOptions(dir));
    const SweepResult a = cold.sweep(cfg, twoSchemes(), 2, mixOf);
    const auto cold_stats = cold.cacheStats();
    EXPECT_TRUE(cold_stats.persistent);
    EXPECT_EQ(cold_stats.storeHits, 0u);
    EXPECT_GT(cold_stats.storeMisses, 0u);

    // A fresh runner (standing in for a fresh process) must rebuild
    // the identical sweep purely from disk.
    ExperimentRunner warm(storeOptions(dir));
    const SweepResult b = warm.sweep(cfg, twoSchemes(), 2, mixOf);
    const auto warm_stats = warm.cacheStats();
    EXPECT_EQ(warm_stats.storeMisses, 0u);
    EXPECT_EQ(warm_stats.storeHits, cold_stats.storeMisses);
    ASSERT_EQ(a.ws.size(), b.ws.size());
    for (std::size_t s = 0; s < a.ws.size(); s++)
        EXPECT_EQ(a.ws[s], b.ws[s]);
    EXPECT_TRUE(a.firstRun == b.firstRun);
    EXPECT_EQ(a.toJson(), b.toJson());
}

TEST(ShardedRunnerTest, ShardsPartitionCellsAndMergeMatchesUnsharded)
{
    const ScopedDir dir_scope("shards");
    const std::string &dir = dir_scope.path();
    const ScopedDir dir_ref_scope("shards_ref");
    const std::string &dir_ref = dir_ref_scope.path();
    const SystemConfig cfg = tinyConfig();

    // Reference: unsharded cold sweep into its own store. Its store
    // misses count every unique cacheable cell exactly once.
    ExperimentRunner ref(storeOptions(dir_ref));
    const SweepResult expect = ref.sweep(cfg, twoSchemes(), 2, mixOf);
    const std::uint64_t cells = ref.cacheStats().storeMisses;
    ASSERT_GT(cells, 0u);

    // Two shards over a shared store, run back to back (the store
    // lookup precedes the ownership check, so the second shard serves
    // the first shard's cells as store hits instead of skipping).
    ExperimentRunner s0(storeOptions(dir, 0, 2));
    s0.sweep(cfg, twoSchemes(), 2, mixOf);
    const auto st0 = s0.cacheStats();
    ExperimentRunner s1(storeOptions(dir, 1, 2));
    s1.sweep(cfg, twoSchemes(), 2, mixOf);
    const auto st1 = s1.cacheStats();

    // Shard 0 saw a cold store: every cell missed; it simulated its
    // own and skipped the rest.
    EXPECT_EQ(st0.storeMisses, cells);
    EXPECT_EQ(st1.shardSkipped, 0u);
    // Disjoint + complete: shard 1 simulated exactly the cells shard
    // 0 skipped, and found shard 0's output for all the others.
    EXPECT_EQ(st1.storeMisses, st0.shardSkipped);
    EXPECT_EQ(st1.storeHits, cells - st0.shardSkipped);
    const std::uint64_t simulated =
        (st0.storeMisses - st0.shardSkipped) + st1.storeMisses;
    EXPECT_EQ(simulated, cells);

    // Merge: a warm unsharded runner over the combined store must
    // reproduce the unsharded sweep bit for bit without simulating.
    ExperimentRunner merged(storeOptions(dir));
    const SweepResult got = merged.sweep(cfg, twoSchemes(), 2, mixOf);
    EXPECT_EQ(merged.cacheStats().storeMisses, 0u);
    EXPECT_EQ(merged.cacheStats().storeHits, cells);
    ASSERT_EQ(expect.firstRun.size(), got.firstRun.size());
    for (std::size_t s = 0; s < expect.firstRun.size(); s++) {
        EXPECT_TRUE(withoutWallClock(got.firstRun[s]) ==
                    withoutWallClock(expect.firstRun[s]));
    }
    EXPECT_EQ(expect.toJson(), got.toJson());
}

} // anonymous namespace
} // namespace cdcs
