#include "sim/report.hh"

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/format.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "sim/study.hh"
#include "sim/system.hh"

namespace cdcs
{

namespace
{

/** Write `json` plus one newline to `path`; false on I/O failure. */
bool
writeJsonFile(const std::string &path, std::string_view json)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
        std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
}

/** CSV field, quoted when it contains a delimiter or quote. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** Scheme display name -> artifact-name fragment ("S-NUCA" ->
 * "s-nuca"): lowercase, non-alphanumerics folded to '-'. */
std::string
artifactFragment(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c >= 'A' && c <= 'Z')
            out.push_back(static_cast<char>(c - 'A' + 'a'));
        else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
            out.push_back(c);
        else
            out.push_back('-');
    }
    return out;
}

} // anonymous namespace

ReportSink::ReportSink(std::string json_dir)
    : jsonDir(std::move(json_dir))
{
    // As with the result store's cacheDir, a missing directory is
    // created; a path that cannot be one fails every artifact write.
    if (!jsonDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(jsonDir, ec);
    }
}

void
ReportSink::printf(const char *fmt, ...)
{
    std::string line;
    va_list args;
    va_start(args, fmt);
    appendV(line, fmt, args);
    va_end(args);
    text(line);
}

void
ReportSink::sweep(const std::string &name, const SweepResult &result)
{
    artifact(name, "sweep", result.toJson());
    onSweep(name, result);
    // Auto-export the per-epoch metrics traces (one per scheme) when
    // the sweep's runs carried a `stats=` selection. firstRun holds
    // the mix-0 results, the canonical per-run exemplar elsewhere in
    // the report layer too.
    for (std::size_t s = 0; s < result.firstRun.size(); s++) {
        if (result.firstRun[s].statNames.empty())
            continue;
        const std::string scheme = s < result.schemes.size()
            ? result.schemes[s].name : std::to_string(s);
        artifact("metrics_trace_" + name + "_" +
                     artifactFragment(scheme),
                 "artifact",
                 metricsTraceJson(scheme, result.firstRun[s]));
    }
}

void
ReportSink::artifact(const std::string &name, std::string_view kind,
                     std::string_view json)
{
    // One value per file and per document entry: a trailing newline
    // (SweepResult::toJson ends in one) is the file's, not the value's.
    while (!json.empty() && json.back() == '\n')
        json.remove_suffix(1);
    std::string path;
    if (!jsonDir.empty()) {
        path = jsonDir + "/" + name + ".json";
        if (!writeJsonFile(path, json)) {
            std::fprintf(stderr, "failed to write %s: %s\n",
                         path.c_str(), std::strerror(errno));
            writeFailed = true;
            path.clear();
        }
    }
    onArtifact(name, kind, json, path);
}

void
ReportSink::timing(const std::string &study, const StudyTiming &t)
{
    (void)study; // One footer right after the study's own output.
    const auto pct = [&](double sec) {
        return t.wallSec > 0.0 ? 100.0 * sec / t.wallSec : 0.0;
    };
    printf("[timing: wall %.3f s; access %.3f s (%.1f%%), "
           "reconfig %.3f s (%.1f%%), cache-io %.3f s (%.1f%%); "
           "pool %llu steals, idle %.3f s]\n",
           t.wallSec, t.accessSec, pct(t.accessSec), t.reconfigSec,
           pct(t.reconfigSec), t.cacheIoSec, pct(t.cacheIoSec),
           static_cast<unsigned long long>(t.poolSteals),
           t.poolIdleSec);
}

// ------------------------------------------------------------------
// ChipMap

std::string
ChipMap::toJson() const
{
    std::string out = "{";
    appendF(out, "\"width\": %d, \"height\": %d, ", width, height);
    out += "\"threadLabel\": [";
    for (std::size_t t = 0; t < threadLabel.size(); t++) {
        out += t > 0 ? "," : "";
        out += jsonString(threadLabel[t]);
    }
    out += "], \"dataLabel\": [";
    for (std::size_t t = 0; t < dataLabel.size(); t++) {
        out += t > 0 ? "," : "";
        out += jsonString(dataLabel[t]);
    }
    out += "]}";
    return out;
}

ChipMap
captureChipMap(const System &system)
{
    const Mesh &mesh = system.meshRef();
    const WorkloadMix &mix = system.workload();
    const auto &thread_core = system.threadPlacement();
    const auto *policy = system.partitionedPolicy();

    ChipMap map;
    map.width = mesh.width();
    map.height = mesh.height();
    map.threadLabel.assign(mesh.numTiles(), "--");
    for (ThreadId t = 0; t < mix.numThreads(); t++) {
        const ProcId p = mix.thread(t).proc;
        std::string label;
        label += static_cast<char>('A' + (p % 26));
        label += std::to_string(t % 10);
        map.threadLabel[thread_core[t]] = label;
    }

    map.dataLabel.assign(mesh.numTiles(), "..");
    if (policy != nullptr) {
        const auto &alloc = policy->allocation();
        for (TileId tile = 0; tile < mesh.numTiles(); tile++) {
            double best = 0.0;
            int best_vc = -1;
            for (std::size_t d = 0; d < alloc.size(); d++) {
                double here = 0.0;
                // Sum this tile's banks.
                const std::size_t bpt =
                    alloc[d].size() / mesh.numTiles();
                for (std::size_t k = 0; k < bpt; k++)
                    here += alloc[d][tile * bpt + k];
                if (here > best) {
                    best = here;
                    best_vc = static_cast<int>(d);
                }
            }
            if (best_vc >= 0) {
                // Map VC to owning process.
                ProcId proc;
                const int threads = mix.numThreads();
                if (best_vc < threads)
                    proc = mix.thread(
                        static_cast<ThreadId>(best_vc)).proc;
                else if (best_vc < threads + mix.numProcesses())
                    proc = static_cast<ProcId>(best_vc - threads);
                else
                    proc = 255; // Global VC.
                std::string label;
                label += proc == 255
                    ? '*' : static_cast<char>('a' + (proc % 26));
                label += best_vc < threads ? 'p' : 's';
                map.dataLabel[tile] = label;
            }
        }
    }
    return map;
}

// ------------------------------------------------------------------
// NocHeatmap

std::string
NocHeatmap::toJson() const
{
    std::string out = "{";
    appendF(out, "\"width\": %d, \"height\": %d, ", width, height);
    out += "\"links\": [";
    for (std::size_t l = 0; l < links.size(); l++) {
        const NocLinkStat &link = links[l];
        out += l > 0 ? "," : "";
        appendF(out,
                "{\"src\": %d, \"dst\": %d, \"memCtrl\": %d, "
                "\"flits\": %llu, \"util\": %.17g, \"wait\": %.17g}",
                static_cast<int>(link.src),
                link.dst == invalidTile ? -1
                                        : static_cast<int>(link.dst),
                link.memCtrl,
                static_cast<unsigned long long>(link.flits),
                link.util, link.waitCycles);
        if (link.far) {
            // Key present only on far attach links, so tier-less
            // heatmaps stay byte-identical.
            out.pop_back();
            out += ", \"far\": true}";
        }
    }
    out += "]}";
    return out;
}

NocHeatmap
makeNocHeatmap(int width, int height, const RunResult &run)
{
    NocHeatmap map;
    map.width = width;
    map.height = height;
    map.links = run.nocLinks;
    return map;
}

std::string
traceToJson(const std::string &name, const RunResult &run)
{
    std::string out = "{";
    out += "\"name\": " + jsonString(name) + ", ";
    appendF(out, "\"binCycles\": %llu, ",
            static_cast<unsigned long long>(run.ipcBinCycles));
    out += "\"ipc\": [";
    for (std::size_t b = 0; b < run.ipcTrace.size(); b++)
        appendF(out, "%s%.17g", b > 0 ? "," : "", run.ipcTrace[b]);
    out += "]}";
    return out;
}

std::string
metricsTraceJson(const std::string &scheme, const RunResult &run,
                 const std::string &extra_fields)
{
    std::string out = "{";
    out += "\"schema\": \"cdcs-metrics-trace-v1\", ";
    out += "\"scheme\": " + jsonString(scheme) + ", ";
    out += extra_fields;
    out += "\"stats\": [";
    for (std::size_t i = 0; i < run.statNames.size(); i++) {
        out += i > 0 ? "," : "";
        out += jsonString(run.statNames[i]);
    }
    out += "], \"trace\": [";
    for (std::size_t i = 0; i < run.epochTrace.size(); i++) {
        const EpochRecord &rec = run.epochTrace[i];
        out += i > 0 ? ", " : "";
        appendF(out,
                "{\"epoch\": %d, \"active\": %d, \"delta\": %d, "
                "\"aggIpc\": %.17g, \"moves\": %d, "
                "\"movedLines\": %llu",
                rec.epoch, rec.activeThreads, rec.churnDelta,
                rec.aggIpc, rec.placementMoves,
                static_cast<unsigned long long>(rec.movedLines));
        if (!rec.stats.empty()) {
            // Absent (not empty) on epochs statsEvery skipped.
            out += ", \"stats\": [";
            for (std::size_t v = 0; v < rec.stats.size(); v++) {
                appendF(out, "%s%llu", v > 0 ? "," : "",
                        static_cast<unsigned long long>(
                            rec.stats[v]));
            }
            out += "]";
        }
        out += "}";
    }
    out += "]}";
    return out;
}

// ------------------------------------------------------------------
// TextReportSink

TextReportSink::TextReportSink(std::FILE *out_file,
                               std::string json_dir)
    : ReportSink(std::move(json_dir)), out(out_file)
{
}

void
TextReportSink::text(std::string_view s)
{
    std::fwrite(s.data(), 1, s.size(), out);
}

void
TextReportSink::flush()
{
    std::fflush(out);
}

void
TextReportSink::onArtifact(const std::string &name,
                           std::string_view kind,
                           std::string_view json,
                           const std::string &path)
{
    (void)name;
    (void)kind;
    (void)json;
    if (!path.empty())
        this->printf("[json: %s]\n", path.c_str());
}

// ------------------------------------------------------------------
// JsonReportSink

JsonReportSink::JsonReportSink(std::FILE *out_file,
                               std::string json_dir)
    : ReportSink(std::move(json_dir)), out(out_file)
{
}

void
JsonReportSink::beginStudy(const StudySpec &spec)
{
    if (anyStudy)
        doc += "\n  ]},\n";
    anyStudy = true;
    anyArtifact = false;
    doc += "  {\"name\": " + jsonString(spec.name) +
        ", \"title\": " + jsonString(spec.title) +
        ", \"paperRef\": " + jsonString(spec.paperRef) +
        ", \"category\": " + jsonString(spec.category) +
        ", \"artifacts\": [";
}

void
JsonReportSink::onArtifact(const std::string &name,
                           std::string_view kind,
                           std::string_view json,
                           const std::string &path)
{
    (void)path;
    doc += anyArtifact ? ",\n" : "\n";
    anyArtifact = true;
    doc += "   {\"name\": " + jsonString(name) +
        ", \"kind\": " + jsonString(kind) + ", \"data\": ";
    doc += json;
    doc += "}";
}

void
JsonReportSink::timing(const std::string &study,
                       const StudyTiming &t)
{
    (void)study; // Recorded inside the current study's artifacts.
    std::string json = "{";
    appendF(json,
            "\"wallSec\": %.17g, \"accessSec\": %.17g, "
            "\"reconfigSec\": %.17g, \"cacheIoSec\": %.17g, "
            "\"poolSteals\": %llu, \"poolIdleSec\": %.17g}",
            t.wallSec, t.accessSec, t.reconfigSec, t.cacheIoSec,
            static_cast<unsigned long long>(t.poolSteals),
            t.poolIdleSec);
    onArtifact("timing", "timing", json, "");
}

void
JsonReportSink::finish()
{
    std::string full = "{\"studies\": [\n";
    full += doc;
    if (anyStudy)
        full += "\n  ]}\n";
    full += "]}\n";
    std::fwrite(full.data(), 1, full.size(), out);
    std::fflush(out);
    doc.clear();
    anyStudy = false;
}

// ------------------------------------------------------------------
// CsvReportSink

CsvReportSink::CsvReportSink(std::FILE *out_file,
                             std::string json_dir)
    : ReportSink(std::move(json_dir)), out(out_file)
{
}

void
CsvReportSink::beginStudy(const StudySpec &spec)
{
    currentStudy = spec.name;
}

void
CsvReportSink::onSweep(const std::string &name,
                       const SweepResult &result)
{
    if (!wroteHeader) {
        std::fprintf(out,
                     "study,sweep,scheme,mixes,gmeanWS,maxWS,"
                     "onChipLat,offChipLat,trafficL2LLC,"
                     "trafficLLCMem,trafficOther,energyPerInstr\n");
        wroteHeader = true;
    }
    for (std::size_t s = 0; s < result.schemes.size(); s++) {
        const bool any = result.mixes() > 0;
        std::fprintf(out,
                     "%s,%s,%s,%d,%.17g,%.17g,%.17g,%.17g,%.17g,"
                     "%.17g,%.17g,%.17g\n",
                     csvField(currentStudy).c_str(),
                     csvField(name).c_str(),
                     csvField(result.schemes[s].name).c_str(),
                     result.mixes(),
                     any ? gmean(result.ws[s]) : 0.0,
                     any ? maxOf(result.ws[s]) : 0.0,
                     result.onChipLat[s], result.offChipLat[s],
                     result.trafficPerInstr[s][0],
                     result.trafficPerInstr[s][1],
                     result.trafficPerInstr[s][2],
                     result.energyPerInstr[s]);
    }
}

void
CsvReportSink::finish()
{
    std::fflush(out);
}

// ------------------------------------------------------------------
// Legacy text renderings (exact bench_util.hh formats)

void
writeInverseCdf(ReportSink &sink, const SweepResult &sweep)
{
    if (sweep.schemes.empty() || sweep.mixes() == 0)
        return;
    sink.printf("%-12s", "mix-rank");
    for (int m = 0; m < sweep.mixes(); m++)
        sink.printf("  %6d", m);
    sink.printf("\n");
    for (std::size_t s = 0; s < sweep.schemes.size(); s++) {
        const auto sorted = inverseCdf(sweep.ws[s]);
        sink.printf("%-12s", sweep.schemes[s].name.c_str());
        for (double w : sorted)
            sink.printf("  %6.3f", w);
        sink.printf("\n");
    }
}

void
writeWsSummary(ReportSink &sink, const SweepResult &sweep)
{
    if (sweep.mixes() == 0) {
        sink.printf("(no mixes swept)\n");
        return;
    }
    sink.printf("%-12s  %8s  %8s\n", "scheme", "gmeanWS", "maxWS");
    for (std::size_t s = 0; s < sweep.schemes.size(); s++) {
        sink.printf("%-12s  %8.3f  %8.3f\n",
                    sweep.schemes[s].name.c_str(), gmean(sweep.ws[s]),
                    maxOf(sweep.ws[s]));
    }
}

void
writeTierSummary(ReportSink &sink, const SweepResult &sweep)
{
    bool any = false;
    for (const RunResult &run : sweep.firstRun)
        any = any || run.tieredPages > 0;
    if (!any)
        return;
    sink.printf("\n%-12s  %8s  %9s  %9s  %9s\n", "scheme",
                "farShare", "farPages", "promoted", "demoted");
    for (std::size_t s = 0; s < sweep.firstRun.size(); s++) {
        const RunResult &run = sweep.firstRun[s];
        const char *name = s < sweep.schemes.size()
            ? sweep.schemes[s].name.c_str() : "?";
        sink.printf("%-12s  %8.3f  %9llu  %9llu  %9llu\n", name,
                    run.farAccessShare(),
                    static_cast<unsigned long long>(
                        run.farResidentPages),
                    static_cast<unsigned long long>(
                        run.tierPromotions),
                    static_cast<unsigned long long>(
                        run.tierDemotions));
    }
}

void
writeBreakdowns(ReportSink &sink, const SweepResult &sweep)
{
    if (sweep.schemes.empty())
        return;
    const std::size_t ref = sweep.schemes.size() - 1;
    sink.printf("\n%-12s %10s %10s %28s %10s\n", "scheme",
                "onchip/ref", "offchip/ref",
                "traffic/instr (L2LLC|LLCMem|Oth)", "energy/ref");
    for (std::size_t s = 0; s < sweep.schemes.size(); s++) {
        sink.printf(
            "%-12s %10.2f %10.2f      %6.2f | %6.2f | %6.2f %10.2f\n",
            sweep.schemes[s].name.c_str(),
            sweep.onChipLat[s] / std::max(sweep.onChipLat[ref], 1e-12),
            sweep.offChipLat[s] /
                std::max(sweep.offChipLat[ref], 1e-12),
            sweep.trafficPerInstr[s][0], sweep.trafficPerInstr[s][1],
            sweep.trafficPerInstr[s][2],
            sweep.energyPerInstr[s] /
                std::max(sweep.energyPerInstr[ref], 1e-12));
    }
    sink.printf("\n%-12s %8s %8s %8s %8s %8s  (nJ/instr)\n", "scheme",
                "static", "core", "net", "llc", "mem");
    for (std::size_t s = 0; s < sweep.schemes.size(); s++) {
        sink.printf("%-12s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
                    sweep.schemes[s].name.c_str(),
                    1e9 * sweep.energyParts[s][0],
                    1e9 * sweep.energyParts[s][1],
                    1e9 * sweep.energyParts[s][2],
                    1e9 * sweep.energyParts[s][3],
                    1e9 * sweep.energyParts[s][4]);
    }
}

void
writeChipMap(ReportSink &sink, const ChipMap &map)
{
    sink.printf("thread placement (process letter + thread digit; "
                "-- idle) / dominant data (process letter: p=private "
                "s=shared)\n");
    for (int y = 0; y < map.height; y++) {
        for (int x = 0; x < map.width; x++)
            sink.printf(
                " %s", map.threadLabel[y * map.width + x].c_str());
        sink.printf("   |");
        for (int x = 0; x < map.width; x++)
            sink.printf(" %s",
                        map.dataLabel[y * map.width + x].c_str());
        sink.printf("\n");
    }
}

void
writeNocHeatmap(ReportSink &sink, const NocHeatmap &map)
{
    if (map.width <= 0 || map.height <= 0 || map.links.empty()) {
        sink.printf("(no link loads: network model tracks no "
                    "links)\n");
        return;
    }
    // Per-tile outgoing load (mesh links only), as % of the hottest
    // tile — the link-level analogue of the chip maps.
    std::vector<std::uint64_t> tile_flits(
        static_cast<std::size_t>(map.width) * map.height, 0);
    for (const NocLinkStat &link : map.links) {
        if (link.memCtrl < 0 && link.src < tile_flits.size())
            tile_flits[link.src] += link.flits;
    }
    std::uint64_t peak = 0;
    for (std::uint64_t f : tile_flits)
        peak = std::max(peak, f);
    sink.printf("link load per tile (outgoing flits, %% of hottest "
                "tile)\n");
    for (int y = 0; y < map.height; y++) {
        for (int x = 0; x < map.width; x++) {
            const std::uint64_t f =
                tile_flits[static_cast<std::size_t>(y) * map.width +
                           x];
            sink.printf(" %3d",
                        peak > 0
                            ? static_cast<int>((f * 100) / peak)
                            : 0);
        }
        sink.printf("\n");
    }

    // The hottest individual links (deterministic order: flits desc,
    // then link endpoints).
    std::vector<NocLinkStat> hottest = map.links;
    std::stable_sort(hottest.begin(), hottest.end(),
                     [](const NocLinkStat &a, const NocLinkStat &b) {
                         if (a.flits != b.flits)
                             return a.flits > b.flits;
                         if (a.src != b.src)
                             return a.src < b.src;
                         return a.dst < b.dst;
                     });
    const std::size_t shown = std::min<std::size_t>(5, hottest.size());
    sink.printf("hottest links (flits, util, wait cycles):\n");
    for (std::size_t i = 0; i < shown; i++) {
        const NocLinkStat &link = hottest[i];
        const int sx = link.src % map.width;
        const int sy = link.src / map.width;
        if (link.memCtrl >= 0) {
            sink.printf("  %s[%d]@(%d,%d)",
                        link.far ? "farmem" : "mem", link.memCtrl, sx,
                        sy);
        } else {
            sink.printf("  (%d,%d)->(%d,%d)", sx, sy,
                        link.dst % map.width, link.dst / map.width);
        }
        sink.printf("  %llu  %.3f  %.3f\n",
                    static_cast<unsigned long long>(link.flits),
                    link.util, link.waitCycles);
    }
}

void
writeStudyHeader(ReportSink &sink, const char *title,
                 const char *paper_ref, const SystemConfig &cfg,
                 int mixes)
{
    sink.printf("== %s (%s) ==\n", title, paper_ref);
    // Worker count deliberately not printed: output is identical for
    // any CDCS_WORKERS, and byte-identical logs should diff clean.
    sink.printf("mesh %dx%d, %d banks/tile, %llu-line banks, "
                "%llu accesses/thread/epoch, %d epochs (%d warmup), "
                "%d mixes, seed base 1000\n\n",
                cfg.meshWidth, cfg.meshHeight, cfg.banksPerTile,
                static_cast<unsigned long long>(cfg.bankLines),
                static_cast<unsigned long long>(
                    cfg.accessesPerThreadEpoch),
                cfg.epochs, cfg.warmupEpochs, mixes);
}

} // namespace cdcs
