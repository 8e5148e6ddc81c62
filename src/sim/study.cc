#include "sim/study.hh"

#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/json.hh"
#include "common/log.hh"
#include "obs/phase_timer.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "sim/experiment.hh"

namespace cdcs
{

std::vector<SchemeSpec>
StudyContext::lineup() const
{
    return schemesByName(spec.lineup);
}

std::uint64_t
StudyContext::knob(const char *key, const char *env,
                   std::uint64_t fallback) const
{
    return overrides.knob(key, env, fallback);
}

void
StudyContext::header(int mixes_shown) const
{
    writeStudyHeader(sink, spec.title.c_str(), spec.paperRef.c_str(),
                     cfg, mixes_shown);
}

StudyRegistry &
StudyRegistry::instance()
{
    static StudyRegistry registry;
    return registry;
}

void
StudyRegistry::add(StudySpec spec)
{
    cdcs_assert(!spec.name.empty(), "study without a name");
    cdcs_assert(spec.run != nullptr, "study without a body");
    const std::string name = spec.name;
    const auto inserted = studies.emplace(name, std::move(spec));
    cdcs_assert(inserted.second, "study already registered");
}

const StudySpec *
StudyRegistry::find(const std::string &name) const
{
    const auto it = studies.find(name);
    return it == studies.end() ? nullptr : &it->second;
}

std::vector<const StudySpec *>
StudyRegistry::all() const
{
    std::vector<const StudySpec *> out;
    out.reserve(studies.size());
    for (const auto &[name, spec] : studies)
        out.push_back(&spec); // std::map iteration is name-sorted.
    return out;
}

StudyRegistrar::StudyRegistrar(StudySpec spec)
{
    StudyRegistry::instance().add(std::move(spec));
}

ExperimentRunner::Options
runnerOptions(const Overrides &overrides, bool default_cache)
{
    ExperimentRunner::Options opts;
    opts.workers = static_cast<unsigned>(
        overrides.knob("workers", "CDCS_WORKERS", 0));
    opts.cacheDir =
        overrides.strKnob("cacheDir", "CDCS_CACHE_DIR", "");
    // A persistent store is only useful when runs go through the
    // cache, so cacheDir= implies cache=1 (an explicit --set cache=0
    // still wins).
    opts.cacheResults =
        overrides.knob("cache", "CDCS_CACHE",
                       default_cache || !opts.cacheDir.empty()
                           ? 1 : 0) != 0;
    opts.cacheBudget = static_cast<std::size_t>(
        overrides.knob("cacheBudget", "CDCS_CACHE_BUDGET", 1024));
    return opts;
}

int
runStudy(const StudySpec &spec, const Overrides &overrides,
         ExperimentRunner &runner, ReportSink &sink)
{
    // Precedence: defaults < CDCS_* env < spec.configure < --set.
    SystemConfig cfg = benchConfig();
    if (spec.configure)
        spec.configure(cfg);
    overrides.apply(cfg);
    const int mixes = static_cast<int>(overrides.knob(
        "mixes", "CDCS_MIXES",
        static_cast<std::uint64_t>(spec.defaultMixes)));

    StudyContext ctx(spec, cfg, mixes, runner, sink, overrides);
    const ExperimentRunner::CacheStats before = runner.cacheStats();
    const bool timing_on =
        overrides.knob("timing", "CDCS_TIMING", 0) != 0;
    // Turn counting on before any run starts; each run resolves its
    // own `stats=` selection from its config, and the phase timers
    // charge the registry's `time.*` counters. Left on once enabled
    // (a later study in the same batch may still be sampling).
    if (timing_on || cfg.statsEnabled())
        StatRegistry::setEnabled(true);
    const WorkStealingPool &pool = runner.taskPool();
    const std::uint64_t steals_before = pool.stealCount();
    const std::uint64_t wakeups_before = pool.wakeupCount();
    const std::uint64_t idle_before = pool.idleNanos();
    const StatRegistry::Snapshot stats_before =
        StatRegistry::snapshot();
    // lint:allow(wallclock): wall-time footer, reporting-only
    const auto wall_before = std::chrono::steady_clock::now();
    sink.beginStudy(spec);
    if (Tracer::enabled())
        Tracer::instant("study " + spec.name);
    spec.run(ctx);
    if (runner.options().cacheResults) {
        // The runner (and cache) is shared across the studies of one
        // invocation; report this study's delta, not the lifetime
        // totals. A study that got no hits stays silent, so the
        // cache-by-default for repeated-lineup studies cannot change
        // default text output.
        const ExperimentRunner::CacheStats now = runner.cacheStats();
        if (now.hits > before.hits) {
            sink.printf(
                "[cache: %llu hits, %llu misses, %llu "
                "evictions, %llu entries]\n",
                static_cast<unsigned long long>(now.hits -
                                                before.hits),
                static_cast<unsigned long long>(now.misses -
                                                before.misses),
                static_cast<unsigned long long>(now.evictions -
                                                before.evictions),
                static_cast<unsigned long long>(now.entries));
        }
    }
    {
        // Persistent-tier footer: only ever printed when a store is
        // attached (cacheDir is set, a non-default knob), so default
        // text output stays byte-identical; `--set cacheStats=0`
        // silences it for byte-diff runs that do use a store.
        const ExperimentRunner::CacheStats now = runner.cacheStats();
        const std::uint64_t delta =
            (now.storeHits - before.storeHits) +
            (now.storeMisses - before.storeMisses) +
            (now.storeEvictions - before.storeEvictions) +
            (now.storeCorrupt - before.storeCorrupt) +
            (now.shardSkipped - before.shardSkipped);
        if (now.persistent && delta > 0 &&
            overrides.knob("cacheStats", "CDCS_CACHE_STATS", 1) !=
                0) {
            sink.printf(
                "[store: %llu hits, %llu misses, %llu evictions, "
                "%llu corrupt, %llu skipped]\n",
                static_cast<unsigned long long>(now.storeHits -
                                                before.storeHits),
                static_cast<unsigned long long>(now.storeMisses -
                                                before.storeMisses),
                static_cast<unsigned long long>(
                    now.storeEvictions - before.storeEvictions),
                static_cast<unsigned long long>(now.storeCorrupt -
                                                before.storeCorrupt),
                static_cast<unsigned long long>(now.shardSkipped -
                                                before.shardSkipped));
        }
    }
    if (timing_on) {
        const std::chrono::duration<double> wall = // lint:allow(wallclock)
            std::chrono::steady_clock::now() - wall_before;
        // Phase times are summed over every worker's shard.
        const StatRegistry::Snapshot stats_now =
            StatRegistry::snapshot();
        const auto phase_sec = [&](Phase phase) {
            const StatId id = phaseStat(phase);
            return 1e-9 *
                static_cast<double>(stats_now[id] - stats_before[id]);
        };
        StudyTiming t;
        t.wallSec = wall.count();
        t.accessSec = phase_sec(Phase::Access);
        t.reconfigSec = phase_sec(Phase::Reconfig);
        t.cacheIoSec = phase_sec(Phase::StoreIo);
        t.poolSteals = pool.stealCount() - steals_before;
        t.poolWakeups = pool.wakeupCount() - wakeups_before;
        t.poolIdleSec = 1e-9 * static_cast<double>(
            pool.idleNanos() - idle_before);
        sink.timing(spec.name, t);
    }
    sink.endStudy(spec);
    sink.flush();
    return 0;
}

namespace
{

int
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: cdcs_studies <command> [options]\n"
        "\n"
        "commands:\n"
        "  list [--format=text|json]\n"
        "      enumerate the registered studies\n"
        "  run <study>...|all [--set key=value]... "
        "[--format=text|json|csv]\n"
        "      [--shard i/N]\n"
        "      run studies; text output is byte-identical to the\n"
        "      legacy bench harnesses under default knobs.\n"
        "      --shard i/N simulates only the cells whose content\n"
        "      hash maps to shard i (requires cacheDir; the shard's\n"
        "      own report is partial — use merge) and writes\n"
        "      <cacheDir>/shard-<i>of<N>.json\n"
        "  merge <study>...|all [--set key=value]... "
        "[--format=text|json|csv]\n"
        "      recombine sharded runs: replay the studies from the\n"
        "      populated result store (requires cacheDir); output is\n"
        "      byte-identical to an unsharded run\n"
        "\n"
        "overrides (--set, also settable via CDCS_* env knobs):\n");
    for (const auto &[key, type] : Overrides::knownKeys())
        std::fprintf(out, "  %-20s %s\n", key.c_str(), type.c_str());
    return out == stderr ? 2 : 0;
}

int
listStudies(const std::string &format)
{
    const auto all = StudyRegistry::instance().all();
    if (format == "json") {
        std::string doc = "[\n";
        for (std::size_t i = 0; i < all.size(); i++) {
            const StudySpec &s = *all[i];
            doc += "  {\"name\": " + jsonString(s.name) +
                ", \"category\": " + jsonString(s.category) +
                ", \"title\": " + jsonString(s.title) +
                ", \"paperRef\": " + jsonString(s.paperRef) +
                ", \"defaultMixes\": " +
                std::to_string(s.defaultMixes) + ", \"lineup\": [";
            for (std::size_t l = 0; l < s.lineup.size(); l++) {
                doc += l > 0 ? "," : "";
                doc += jsonString(s.lineup[l]);
            }
            doc += i + 1 < all.size() ? "]},\n" : "]}\n";
        }
        doc += "]\n";
        std::fwrite(doc.data(), 1, doc.size(), stdout);
        return 0;
    }
    if (format != "text") {
        std::fprintf(stderr, "unknown list format '%s'\n",
                     format.c_str());
        return 2;
    }
    std::printf("%-22s %-9s %s\n", "study", "category",
                "title (paper ref)");
    for (const StudySpec *s : all) {
        std::printf("%-22s %-9s %s (%s)\n", s->name.c_str(),
                    s->category.c_str(), s->title.c_str(),
                    s->paperRef.c_str());
    }
    return 0;
}

} // anonymous namespace

int
studiesCliMain(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage(stderr);
    const std::string &cmd = args[0];
    if (cmd == "help" || cmd == "--help" || cmd == "-h")
        return usage(stdout);

    Overrides overrides;
    std::string format = "text";
    std::vector<std::string> names;
    int shard_index = 0;
    int shard_count = 1;
    bool sharded = false;
    const auto parse_shard = [&](const std::string &val) {
        char extra = '\0';
        if (std::sscanf(val.c_str(), "%d/%d%c", &shard_index,
                        &shard_count, &extra) != 2 ||
            shard_count < 1 || shard_index < 0 ||
            shard_index >= shard_count) {
            std::fprintf(stderr,
                         "bad --shard '%s' (expected i/N with "
                         "0 <= i < N)\n",
                         val.c_str());
            return false;
        }
        sharded = true;
        return true;
    };
    for (std::size_t i = 1; i < args.size(); i++) {
        const std::string &arg = args[i];
        std::string err;
        if (arg == "--set" || arg == "--format" ||
            arg == "--shard") {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                return 2;
            }
            if (arg == "--format") {
                format = args[++i];
            } else if (arg == "--shard") {
                if (!parse_shard(args[++i]))
                    return 2;
            } else if (!overrides.add(args[++i], &err)) {
                std::fprintf(stderr, "%s\n", err.c_str());
                return 2;
            }
        } else if (arg.rfind("--set=", 0) == 0) {
            if (!overrides.add(arg.substr(6), &err)) {
                std::fprintf(stderr, "%s\n", err.c_str());
                return 2;
            }
        } else if (arg.rfind("--format=", 0) == 0) {
            format = arg.substr(9);
        } else if (arg.rfind("--shard=", 0) == 0) {
            if (!parse_shard(arg.substr(8)))
                return 2;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            return usage(stderr);
        } else {
            names.push_back(arg);
        }
    }
    if (std::string err; !overrides.validate(&err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }

    if (cmd == "list") {
        if (!names.empty() || !overrides.empty() || sharded) {
            std::fprintf(stderr, "list takes only --format\n");
            return 2;
        }
        return listStudies(format);
    }
    const bool merge = cmd == "merge";
    if (cmd != "run" && !merge) {
        std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
        return usage(stderr);
    }
    if (names.empty()) {
        std::fprintf(stderr, "%s needs at least one study name "
                             "(or 'all')\n", cmd.c_str());
        return 2;
    }
    if (merge && sharded) {
        std::fprintf(stderr,
                     "--shard applies to run, not merge\n");
        return 2;
    }

    StudyRegistry &registry = StudyRegistry::instance();
    std::vector<const StudySpec *> specs;
    if (names.size() == 1 && names[0] == "all") {
        specs = registry.all();
    } else {
        for (const std::string &name : names) {
            const StudySpec *spec = registry.find(name);
            if (spec == nullptr) {
                std::fprintf(stderr,
                             "unknown study '%s' (try 'cdcs_studies "
                             "list')\n",
                             name.c_str());
                return 2;
            }
            specs.push_back(spec);
        }
    }

    const std::string json_dir =
        overrides.strKnob("jsonDir", "CDCS_JSON_DIR", "");
    std::unique_ptr<ReportSink> sink;
    if (format == "text") {
        sink = std::make_unique<TextReportSink>(stdout, json_dir);
    } else if (format == "json") {
        sink = std::make_unique<JsonReportSink>(stdout, json_dir);
    } else if (format == "csv") {
        sink = std::make_unique<CsvReportSink>(stdout, json_dir);
    } else {
        std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
        return 2;
    }

    // Repeated-lineup studies opt the shared runner into the result
    // cache unless the user said otherwise.
    bool any_repeated = false;
    for (const StudySpec *spec : specs)
        any_repeated = any_repeated || spec->repeatedLineup;
    ExperimentRunner::Options ropts =
        runnerOptions(overrides, any_repeated);
    if (sharded || merge) {
        if (ropts.cacheDir.empty()) {
            std::fprintf(stderr,
                         "%s requires a result store: --set "
                         "cacheDir=DIR (or CDCS_CACHE_DIR)\n",
                         merge ? "merge" : "--shard");
            return 2;
        }
        if (!ropts.cacheResults) {
            std::fprintf(stderr,
                         "%s requires the result cache (remove "
                         "cache=0)\n",
                         merge ? "merge" : "--shard");
            return 2;
        }
        if (sharded) {
            ropts.shardIndex = shard_index;
            ropts.shardCount = shard_count;
        }
    }
    ExperimentRunner runner(ropts);
    const std::string trace_path =
        overrides.strKnob("trace", "CDCS_TRACE", "");
    if (!trace_path.empty())
        Tracer::open(trace_path);
    int rc = 0;
    for (const StudySpec *spec : specs)
        rc |= runStudy(*spec, overrides, runner, *sink);
    sink->finish();
    // One trace file per invocation, covering every study run.
    if (!Tracer::close())
        rc |= 1;
    if (sharded) {
        char suffix[64];
        std::snprintf(suffix, sizeof(suffix),
                      "/shard-%dof%d.json", shard_index,
                      shard_count);
        const std::string manifest = ropts.cacheDir + suffix;
        if (runner.writeShardManifest(manifest)) {
            std::fprintf(stderr, "[shard %d/%d: manifest %s]\n",
                         shard_index, shard_count,
                         manifest.c_str());
        } else {
            std::fprintf(stderr, "failed to write %s\n",
                         manifest.c_str());
            rc |= 1;
        }
    }
    return rc;
}

} // namespace cdcs
