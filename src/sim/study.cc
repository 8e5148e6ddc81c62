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

namespace cdcs
{

std::vector<SchemeSpec>
StudyContext::lineup() const
{
    return schemesByName(spec.lineup);
}

std::uint64_t
StudyContext::knob(const char *key, std::uint64_t fallback) const
{
    return overrides.knob(key, fallback);
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
runnerOptions(const Overrides &overrides)
{
    ExperimentRunner::Options opts;
    opts.workers = static_cast<unsigned>(overrides.knob("workers", 0));
    opts.cacheResults = true;
    opts.cacheDir = overrides.strKnob("cacheDir", "");
    return opts;
}

namespace
{

/**
 * One study's result-cache and result-store counters (the deltas
 * from `before`: the runner serves every study of an invocation), on
 * stderr so stdout is the same report whichever tier served a run.
 * Each line appears only when its tier did something.
 */
void
printCacheFooters(const ExperimentRunner::CacheStats &before,
                  const ExperimentRunner::CacheStats &now)
{
    const auto delta = [](std::uint64_t later, std::uint64_t earlier) {
        return static_cast<unsigned long long>(later - earlier);
    };
    if (now.hits > before.hits) {
        std::fprintf(stderr,
                     "[cache: %llu hits, %llu misses, %llu evictions, "
                     "%llu entries]\n",
                     delta(now.hits, before.hits),
                     delta(now.misses, before.misses),
                     delta(now.evictions, before.evictions),
                     static_cast<unsigned long long>(now.entries));
    }
    const unsigned long long hits = delta(now.storeHits, before.storeHits);
    const unsigned long long misses =
        delta(now.storeMisses, before.storeMisses);
    const unsigned long long evictions =
        delta(now.storeEvictions, before.storeEvictions);
    const unsigned long long corrupt =
        delta(now.storeCorrupt, before.storeCorrupt);
    const unsigned long long skipped =
        delta(now.shardSkipped, before.shardSkipped);
    if (now.persistent && hits + misses + evictions + corrupt + skipped > 0) {
        std::fprintf(stderr,
                     "[store: %llu hits, %llu misses, %llu evictions, "
                     "%llu corrupt, %llu skipped]\n",
                     hits, misses, evictions, corrupt, skipped);
    }
}

} // anonymous namespace

int
runStudy(const StudySpec &spec, const Overrides &overrides,
         ExperimentRunner &runner, ReportSink &sink)
{
    // Precedence: defaults < CDCS_* env < spec.configure < --set.
    SystemConfig cfg;
    overrides.apply(cfg, spec.configure);
    const int mixes = static_cast<int>(overrides.knob(
        "mixes", static_cast<std::uint64_t>(spec.defaultMixes)));

    StudyContext ctx(spec, cfg, mixes, runner, sink, overrides);
    const ExperimentRunner::CacheStats before = runner.cacheStats();
    const bool timing_on = overrides.knob("timing", 0) != 0;
    // Turn counting on before any run starts; each run resolves its
    // own `stats=` selection from its config, and the phase timers
    // charge the registry's `time.*` counters. Left on once enabled
    // (a later study in the same batch may still be sampling).
    if (timing_on || cfg.statsEnabled())
        StatRegistry::setEnabled(true);
    const WorkStealingPool &pool = runner.taskPool();
    const std::uint64_t steals_before = pool.stealCount();
    const std::uint64_t idle_before = pool.idleNanos();
    const StatRegistry::Snapshot stats_before =
        StatRegistry::snapshot();
    // lint:allow(wallclock): wall-time footer, reporting-only
    const auto wall_before = std::chrono::steady_clock::now();
    sink.beginStudy(spec);
    if (Tracer::enabled())
        Tracer::instant("study " + spec.name);
    spec.run(ctx);
    printCacheFooters(before, runner.cacheStats());
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
        "      own report is partial — use merge)\n"
        "  merge <study>...|all [--set key=value]... "
        "[--format=text|json|csv]\n"
        "      recombine sharded runs: replay the studies from the\n"
        "      populated result store (requires cacheDir); output is\n"
        "      byte-identical to an unsharded run, and the exit\n"
        "      status is 1 when any cell was missing from the store\n"
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
    if (cmd == "list") {
        if (!names.empty() || !overrides.empty() || sharded) {
            std::fprintf(stderr, "list takes only --format\n");
            return 2;
        }
        return listStudies(format);
    }
    // The CDCS_* environment, ranked below every --set entry.
    if (std::string err; !overrides.addEnvironment(&err) ||
                         !overrides.validate(&err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
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

    const std::string json_dir = overrides.strKnob("jsonDir", "");
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

    ExperimentRunner::Options ropts = runnerOptions(overrides);
    if (sharded || merge) {
        if (ropts.cacheDir.empty()) {
            std::fprintf(stderr,
                         "%s requires a result store: --set "
                         "cacheDir=DIR (or CDCS_CACHE_DIR)\n",
                         merge ? "merge" : "--shard");
            return 2;
        }
        // Shards and merge exchange results only through the
        // store: one that cannot open must stop here, not fall back
        // to simulating every cell.
        if (const ResultStore store(ropts.cacheDir); !store.ok()) {
            std::fprintf(stderr, "[result-store] %s\n",
                         store.error().c_str());
            return 2;
        }
        if (sharded) {
            ropts.shardIndex = shard_index;
            ropts.shardCount = shard_count;
        }
    }
    // One trace file per invocation, covering every study run; a
    // path that cannot be written stops here, before any run.
    const std::string trace_path = overrides.strKnob("trace", "");
    if (std::string err;
        !trace_path.empty() && !Tracer::open(trace_path, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }
    ExperimentRunner runner(ropts);
    int rc = 0;
    for (const StudySpec *spec : specs)
        rc |= runStudy(*spec, overrides, runner, *sink);
    sink->finish();
    if (sink->artifactWriteFailed())
        rc |= 1;
    if (!Tracer::close())
        rc |= 1;
    if (merge) {
        // A cell the store could not serve was simulated here, so the
        // report is still right, but the shard set was incomplete.
        const ExperimentRunner::CacheStats done = runner.cacheStats();
        const unsigned long long absent = done.storeMisses;
        const unsigned long long corrupt = done.storeCorrupt;
        if (absent + corrupt > 0) {
            std::fprintf(stderr,
                         "merge: %llu cells missed the store (%llu "
                         "absent, %llu corrupt) and were simulated\n",
                         absent + corrupt, absent, corrupt);
            rc |= 1;
        }
    }
    return rc;
}

} // namespace cdcs
