/**
 * @file
 * Output layer of the study API. A ReportSink receives everything a
 * study produces — the free-form text stream the legacy harnesses
 * printed, plus structured artifacts (sweeps, per-run IPC traces,
 * chip maps) — so one study body can render as plain text
 * (byte-identical to the legacy benches), a JSON document, or CSV
 * summary rows, and can export per-run artifacts as JSON files.
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

    // Work-stealing pool counters over the same window (all zero on
    // serial runs, where the pool never spawns workers).
    std::uint64_t poolSteals = 0;   ///< Cross-deque task takes.
    std::uint64_t poolWakeups = 0;  ///< Submissions that woke sleepers.
    double poolIdleSec = 0.0;       ///< Worker time parked on the cv.
};

/** Where study output goes; default implementations discard. */
class ReportSink
{
  public:
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
     * A completed scheme x mix sweep. Non-virtual template method:
     * dispatches to the sink's onSweep() rendering, then auto-exports
     * a metrics_trace_* artifact for every scheme whose mix-0 run
     * sampled registry stats (`stats=` active), so every sink flavor
     * gets the metrics traces without reimplementing the export.
     */
    void sweep(const std::string &name, const SweepResult &result);

    /** A per-run IPC trace (Fig. 17). */
    virtual void
    trace(const std::string &name, const RunResult &run)
    {
        (void)name;
        (void)run;
    }

    /** A captured placement map (Fig. 1 / Fig. 16b). */
    virtual void
    chipMap(const std::string &name, const ChipMap &map)
    {
        (void)name;
        (void)map;
    }

    /** A captured link-load heatmap (noc_heatmap). */
    virtual void
    nocHeatmap(const std::string &name, const NocHeatmap &map)
    {
        (void)name;
        (void)map;
    }

    /**
     * A free-form structured artifact: `json` must be a complete
     * JSON value. Text/CSV sinks export it as a <name>.json file
     * (when a json_dir is configured); the JSON sink embeds it in
     * the document. For study-specific payloads (e.g. the
     * elasticity study's churn traces) that don't fit the typed
     * channels above.
     */
    virtual void
    artifact(const std::string &name, const std::string &json)
    {
        (void)name;
        (void)json;
    }

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
};

/**
 * Text rendering to a FILE*, byte-identical to the legacy benches.
 * When `json_dir` is non-empty, structured artifacts additionally
 * land there as <name>.json files with a "[json: path]" marker line
 * (the old CDCS_JSON_DIR behavior, now covering traces and chip maps
 * too).
 */
class TextReportSink : public ReportSink
{
  public:
    explicit TextReportSink(std::FILE *out = stdout,
                            std::string json_dir = "");

    void text(std::string_view s) override;
    void flush() override;
    void onSweep(const std::string &name,
                 const SweepResult &result) override;
    void trace(const std::string &name,
               const RunResult &run) override;
    void chipMap(const std::string &name,
                 const ChipMap &map) override;
    void nocHeatmap(const std::string &name,
                    const NocHeatmap &map) override;
    void artifact(const std::string &name,
                  const std::string &json) override;

  private:
    void exportArtifact(const std::string &name,
                        const std::string &json);

    std::FILE *out;
    std::string jsonDir;
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
 * One JSON document per batch: studies with their sweeps, traces and
 * chip maps; the free-form text stream is dropped. Written to `out`
 * by finish(). A non-empty `json_dir` additionally writes each
 * artifact as a <name>.json file (silently: stdout carries the
 * document).
 */
class JsonReportSink : public ReportSink
{
  public:
    explicit JsonReportSink(std::FILE *out = stdout,
                            std::string json_dir = "");

    void beginStudy(const StudySpec &spec) override;
    void onSweep(const std::string &name,
                 const SweepResult &result) override;
    void trace(const std::string &name,
               const RunResult &run) override;
    void chipMap(const std::string &name,
                 const ChipMap &map) override;
    void nocHeatmap(const std::string &name,
                    const NocHeatmap &map) override;
    void artifact(const std::string &name,
                  const std::string &json) override;
    void timing(const std::string &study,
                const StudyTiming &t) override;
    void finish() override;

  private:
    std::FILE *out;
    std::string jsonDir;
    std::string doc;
    bool anyStudy = false;
    bool anyArtifact = false;
};

/**
 * CSV summary rows, one per (sweep, scheme): gmean/max weighted
 * speedup plus the latency/traffic/energy aggregates. The free-form
 * text stream is dropped; a non-empty `json_dir` still exports every
 * structured artifact as a <name>.json file.
 */
class CsvReportSink : public ReportSink
{
  public:
    explicit CsvReportSink(std::FILE *out = stdout,
                           std::string json_dir = "");

    void beginStudy(const StudySpec &spec) override;
    void onSweep(const std::string &name,
                 const SweepResult &result) override;
    void trace(const std::string &name,
               const RunResult &run) override;
    void chipMap(const std::string &name,
                 const ChipMap &map) override;
    void nocHeatmap(const std::string &name,
                    const NocHeatmap &map) override;
    void artifact(const std::string &name,
                  const std::string &json) override;
    /** CSV rows carry no timing; the footer is dropped. */
    void
    timing(const std::string &study, const StudyTiming &t) override
    {
        (void)study;
        (void)t;
    }
    void finish() override;

  private:
    std::FILE *out;
    std::string jsonDir;
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
