/**
 * @file
 * Output layer of the study API. A ReportSink receives everything a
 * study produces — the free-form text stream the legacy harnesses
 * printed, plus structured artifacts (sweeps, per-run IPC traces,
 * chip maps, link heatmaps) through one artifact() channel — so one
 * study body can render as plain text (byte-identical to the legacy
 * benches), a JSON document, or CSV summary rows, and can export
 * every artifact as a JSON file.
 *
 * The write* helpers are the old bench_util.hh printers, rendering
 * through a sink with the exact legacy formats.
 */

#ifndef CDCS_SIM_REPORT_HH
#define CDCS_SIM_REPORT_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/experiment_runner.hh"

namespace cdcs
{

class System;
struct StudySpec;

/**
 * A captured Fig. 1 / Fig. 16b style placement map: per tile, the
 * thread running there and the process whose data dominates the
 * tile's bank(s).
 */
struct ChipMap
{
    int width = 0;
    int height = 0;
    std::vector<std::string> threadLabel; ///< Per tile; "--" idle.
    std::vector<std::string> dataLabel;   ///< Per tile; ".." none.

    std::string toJson() const;
};

/** Capture the placement map of a finished run. */
ChipMap captureChipMap(const System &system);

/**
 * A captured link-load heatmap: the per-link NoC traffic of one run
 * under a link-tracking network model (noc=contention), rendered like
 * the chip maps and exported for tools/plot_noc_heatmap.py.
 */
struct NocHeatmap
{
    int width = 0;
    int height = 0;
    std::vector<NocLinkStat> links;

    std::string toJson() const;
};

/** Build the heatmap of a finished run (empty under zero-load). */
NocHeatmap makeNocHeatmap(int width, int height, const RunResult &run);

/**
 * Per-study wall time and phase breakdown, gathered from the
 * registry's `time.*` counters (`--set timing=1` / CDCS_TIMING).
 * Phase times are summed across worker threads, so their total can
 * exceed the wall time on parallel runs.
 */
struct StudyTiming
{
    double wallSec = 0.0;
    double accessSec = 0.0;    ///< Epoch access loops.
    double reconfigSec = 0.0;  ///< Epoch-boundary runtime reconfig.
    double cacheIoSec = 0.0;   ///< Persistent result-store I/O.

    // Experiment-pool counters over the same window (all zero on
    // serial runs, where the pool never spawns workers).
    std::uint64_t poolSteals = 0;   ///< Cross-stripe index takes.
    double poolIdleSec = 0.0;       ///< Worker time parked on the cv.
};

/** Where study output goes; default implementations discard. */
class ReportSink
{
  public:
    /**
     * A non-empty `json_dir` exports every artifact as a
     * <json_dir>/<name>.json file, whatever the output format. The
     * directory is created if missing.
     */
    explicit ReportSink(std::string json_dir = "");
    virtual ~ReportSink() = default;

    /** Free-form preformatted text (the legacy printf stream). */
    virtual void text(std::string_view s) { (void)s; }

    /** printf-style convenience wrapper over text(). */
    void printf(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    virtual void flush() {}

    virtual void beginStudy(const StudySpec &spec) { (void)spec; }
    virtual void endStudy(const StudySpec &spec) { (void)spec; }
    /** Emitted once per run batch/document (sink lifetime). */
    virtual void finish() {}

    /**
     * A completed scheme x mix sweep: exported as a "sweep" artifact,
     * rendered by the sink's onSweep(), then followed by a
     * metrics_trace_* artifact for every scheme whose mix-0 run
     * sampled registry stats (`stats=` active).
     */
    void sweep(const std::string &name, const SweepResult &result);

    /**
     * The one structured-output channel. `json` is a complete JSON
     * value (e.g. ChipMap::toJson(), traceToJson()) and `kind` labels
     * it in the JSON document ("sweep", "trace", "chipmap",
     * "nocheatmap", "artifact"). With a jsonDir the value is written
     * to <jsonDir>/<name>.json, ending in exactly one newline; then
     * onArtifact() sees it.
     */
    void artifact(const std::string &name, std::string_view kind,
                  std::string_view json);

    /** Some artifact could not be written under the jsonDir. */
    bool artifactWriteFailed() const { return writeFailed; }

    /**
     * A study's phase-timing footer (emitted by runStudy only under
     * `--set timing=1`). The default implementation renders the text
     * footer through text(), so text-flavored sinks inherit it.
     */
    virtual void timing(const std::string &study,
                        const StudyTiming &t);

  protected:
    /** Sink-specific sweep rendering (see sweep()). */
    virtual void
    onSweep(const std::string &name, const SweepResult &result)
    {
        (void)name;
        (void)result;
    }

    /**
     * Sink hook behind artifact(): `json` without its trailing
     * newline, `path` the file written ("" without a jsonDir or when
     * the write failed).
     */
    virtual void
    onArtifact(const std::string &name, std::string_view kind,
               std::string_view json, const std::string &path)
    {
        (void)name;
        (void)kind;
        (void)json;
        (void)path;
    }

  private:
    std::string jsonDir;
    bool writeFailed = false;
};

/**
 * Text rendering to a FILE*, byte-identical to the legacy benches.
 * Each artifact written under `json_dir` prints a "[json: path]"
 * marker line.
 */
class TextReportSink : public ReportSink
{
  public:
    explicit TextReportSink(std::FILE *out = stdout,
                            std::string json_dir = "");

    void text(std::string_view s) override;
    void flush() override;

  protected:
    void onArtifact(const std::string &name, std::string_view kind,
                    std::string_view json,
                    const std::string &path) override;

  private:
    std::FILE *out;
};

/** Text capture into a string (tests, golden comparisons). */
class StringReportSink : public ReportSink
{
  public:
    void text(std::string_view s) override { captured += s; }
    const std::string &str() const { return captured; }
    void clear() { captured.clear(); }

  private:
    std::string captured;
};

/**
 * One JSON document per batch: studies with their artifacts, each
 * embedded under its kind; the free-form text stream is dropped.
 * Written to `out` by finish(). A non-empty `json_dir` additionally
 * gets the artifact files (silently: stdout carries the document).
 */
class JsonReportSink : public ReportSink
{
  public:
    explicit JsonReportSink(std::FILE *out = stdout,
                            std::string json_dir = "");

    void beginStudy(const StudySpec &spec) override;
    void timing(const std::string &study,
                const StudyTiming &t) override;
    void finish() override;

  protected:
    void onArtifact(const std::string &name, std::string_view kind,
                    std::string_view json,
                    const std::string &path) override;

  private:
    std::FILE *out;
    std::string doc;
    bool anyStudy = false;
    bool anyArtifact = false;
};

/**
 * CSV summary rows, one per (sweep, scheme): gmean/max weighted
 * speedup plus the latency/traffic/energy aggregates. The free-form
 * text stream (and so the timing footer) is dropped; a non-empty
 * `json_dir` still gets the artifact files.
 */
class CsvReportSink : public ReportSink
{
  public:
    explicit CsvReportSink(std::FILE *out = stdout,
                           std::string json_dir = "");

    void beginStudy(const StudySpec &spec) override;
    void finish() override;

  protected:
    void onSweep(const std::string &name,
                 const SweepResult &result) override;

  private:
    std::FILE *out;
    std::string currentStudy;
    bool wroteHeader = false;
};

/** Serialize a per-run IPC trace (Fig. 17) as JSON. */
std::string traceToJson(const std::string &name, const RunResult &run);

/**
 * Serialize a run's per-epoch metrics trace (schema
 * "cdcs-metrics-trace-v1"): the EpochRecord stream plus the sampled
 * StatRegistry columns (when the run had a `stats=` selection).
 * `extra_fields` is injected verbatim after the scheme field — a
 * study can add its own top-level keys (e.g. the elasticity study's
 * churn-event epochs) as `"key": value, ` pairs.
 */
std::string metricsTraceJson(const std::string &scheme,
                             const RunResult &run,
                             const std::string &extra_fields = "");

// ------------------------------------------------------------------
// The legacy bench_util.hh printers, rendering through a sink.

/** The per-mix weighted speedups as inverse CDF rows. */
void writeInverseCdf(ReportSink &sink, const SweepResult &sweep);

/** gmean / max weighted speedups per scheme. */
void writeWsSummary(ReportSink &sink, const SweepResult &sweep);

/**
 * Per-scheme far-memory tier counters (mix-0 exemplar runs): far
 * access share, resident far pages, promotions/demotions. Prints
 * nothing when no scheme ran with a far tier, so studies can call it
 * unconditionally without perturbing tier-less output.
 */
void writeTierSummary(ReportSink &sink, const SweepResult &sweep);

/** On-/off-chip latency and traffic/energy vs. the last scheme. */
void writeBreakdowns(ReportSink &sink, const SweepResult &sweep);

/** The ASCII chip-map rendering (Fig. 1 / Fig. 16b). */
void writeChipMap(ReportSink &sink, const ChipMap &map);

/**
 * The ASCII link-load rendering: per-tile outgoing load as % of the
 * hottest tile, plus the hottest individual links.
 */
void writeNocHeatmap(ReportSink &sink, const NocHeatmap &map);

/** The reproducibility header every study emits. */
void writeStudyHeader(ReportSink &sink, const char *title,
                      const char *paper_ref, const SystemConfig &cfg,
                      int mixes);

} // namespace cdcs

#endif // CDCS_SIM_REPORT_HH
