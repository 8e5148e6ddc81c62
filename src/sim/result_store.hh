/**
 * @file
 * Persistent tier of the two-tier result cache: an on-disk store of
 * serialized RunResults, keyed by a 64-bit content hash over the
 * ExperimentRunner's canonical (cfg, scheme, mix) cache key salted
 * with the code version (the CMake-injected `git describe` string).
 * Repeated sweeps across process lifetimes — warm CI reruns, sharded
 * fleet runs, `cdcs_studies merge` — pay only for cells that changed.
 *
 * One record per file (`<hash>.res` under the store directory), in a
 * compact binary format with a whole-record checksum and the full
 * uncompressed key embedded for collision verification. Writers stage
 * into a temp file and publish with an atomic rename under an
 * advisory flock, so concurrent processes sharing one store can never
 * expose a torn record; readers take no lock and simply distrust
 * anything that fails the magic/version/checksum/key checks (counted
 * as corrupt or miss, never returned).
 */

#ifndef CDCS_SIM_RESULT_STORE_HH
#define CDCS_SIM_RESULT_STORE_HH

#include <cstdint>
#include <mutex>
#include <string>

#include "sim/run_result.hh"

namespace cdcs
{

/** Monotonic counters of one store (process lifetime). */
struct ResultStoreStats
{
    std::uint64_t hits = 0;      ///< Records served from disk.
    std::uint64_t misses = 0;    ///< Absent or version-stale records.
    std::uint64_t writes = 0;    ///< Records written.
    std::uint64_t evictions = 0; ///< Stale records overwritten.
    std::uint64_t corrupt = 0;   ///< Records skipped as untrustworthy.
};

/** On-disk result store (the persistent cache tier). */
class ResultStore
{
  public:
    /**
     * Open (creating if needed) the store rooted at `dir`. Records
     * are only trusted when their embedded version equals `version`
     * (default: the compiled-in code version). Check ok() before use;
     * a store that failed to set up its directory ignores all I/O,
     * and error() says why.
     */
    explicit ResultStore(std::string dir,
                         std::string version = buildVersion());
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** Directory and lock file usable. */
    bool ok() const { return lockFd >= 0; }

    /** Why a store with a directory is not ok() ("" otherwise). */
    const std::string &error() const { return failure; }

    const std::string &directory() const { return root; }
    const std::string &codeVersion() const { return version; }

    /**
     * The code-version salt compiled into this binary (CMake injects
     * `git describe --always --dirty` at configure time; "unknown"
     * outside a git checkout).
     */
    static std::string buildVersion();

    /**
     * Salted content hash of a canonical cache key: the record
     * filename, and the deterministic `--shard` partition basis.
     */
    std::uint64_t keyHash(const std::string &key) const;

    /**
     * Load the record for `key` into `*out`. False on miss; records
     * that are torn, checksum-broken, version-stale or hash-colliding
     * are never trusted (and the corrupt/miss counters say which).
     */
    bool load(const std::string &key, RunResult *out);

    /** Serialize and atomically publish the record for `key`. */
    bool save(const std::string &key, const RunResult &result);

    ResultStoreStats stats() const;

  private:
    std::string recordPath(std::uint64_t hash) const;

    std::string root;
    std::string version;
    std::string failure;
    int lockFd = -1; ///< Advisory writer lock (<root>/.lock).

    mutable std::mutex mu;
    ResultStoreStats counters;
};

} // namespace cdcs

#endif // CDCS_SIM_RESULT_STORE_HH
