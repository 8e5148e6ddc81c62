/**
 * @file
 * The declarative study API: a StudySpec describes one experiment of
 * the paper's evaluation matrix (name, paper reference, config
 * tweaks, scheme lineup by registered name, a body that drives the
 * shared ExperimentRunner and renders through a ReportSink), and a
 * process-wide StudyRegistry lets one `cdcs_studies` CLI enumerate
 * and run all of them with typed `--set key=value` overrides.
 *
 * Adding a scenario is a data change: register a StudySpec (see
 * bench/studies/) and it shows up in `cdcs_studies list` — no new
 * binary, no hand-rolled env parsing, no copied printers.
 */

#ifndef CDCS_SIM_STUDY_HH
#define CDCS_SIM_STUDY_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment_runner.hh"
#include "sim/overrides.hh"
#include "sim/report.hh"
#include "sim/scheme_registry.hh"

namespace cdcs
{

class StudyContext;

/** Declarative description of one study. */
struct StudySpec
{
    /** Registry key and CLI name (e.g. "fig11"). */
    std::string name;
    /** Display title (the legacy header's first field). */
    std::string title;
    /** Paper reference shown in the header and `list`. */
    std::string paperRef;
    /** "figure", "table" or "ablation". */
    std::string category = "figure";
    /** CDCS_MIXES / `--set mixes=` fallback. */
    int defaultMixes = 4;
    /**
     * Declares that the study re-runs its lineup several times
     * (derived variants, scaling loops), so identical (cfg, scheme,
     * mix) runs can recur within one invocation. Such studies get
     * the general result cache enabled by default (`--set cache=0`
     * still wins); the cache footer is only printed when hits
     * actually occur, so default text output is unchanged.
     */
    bool repeatedLineup = false;
    /**
     * The registered base schemes the study builds from, by
     * SchemeRegistry name (what ctx.lineup() resolves). Bodies may
     * derive further variants (fig17's move schemes, vic_monitors'
     * monitor configurations), which appear only in the results.
     */
    std::vector<std::string> lineup;
    /**
     * Static config tweaks applied after the CDCS_* env defaults and
     * before `--set` overrides (e.g. Table 1's 6x6 mesh).
     */
    std::function<void(SystemConfig &)> configure;
    /** The study body. */
    std::function<void(StudyContext &)> run;
};

/** Everything a study body needs, resolved from env + overrides. */
class StudyContext
{
  public:
    StudyContext(const StudySpec &spec_, SystemConfig cfg_,
                 int mixes_, ExperimentRunner &runner_,
                 ReportSink &sink_, const Overrides &overrides_)
        : spec(spec_), cfg(std::move(cfg_)), mixes(mixes_),
          runner(runner_), sink(sink_), overrides(overrides_)
    {
    }

    const StudySpec &spec;
    SystemConfig cfg;   ///< Defaults < env < configure < --set.
    int mixes;          ///< defaultMixes < CDCS_MIXES < --set mixes.
    ExperimentRunner &runner;
    ReportSink &sink;

    /** Build spec.lineup through the SchemeRegistry. */
    std::vector<SchemeSpec> lineup() const;

    /** Study-specific knob: `--set key=` < `env` < fallback. */
    std::uint64_t knob(const char *key, const char *env,
                       std::uint64_t fallback) const;

    /** The standard reproducibility header. */
    void header() const { header(mixes); }
    void header(int mixes_shown) const;

  private:
    const Overrides &overrides;
};

/** Process-wide name -> StudySpec map. */
class StudyRegistry
{
  public:
    static StudyRegistry &instance();

    /** Register a study under its (unique) spec.name. */
    void add(StudySpec spec);

    const StudySpec *find(const std::string &name) const;

    /** All studies, name-sorted. */
    std::vector<const StudySpec *> all() const;

  private:
    std::map<std::string, StudySpec> studies;
};

/** Static registrar: `const StudyRegistrar reg(spec);` */
struct StudyRegistrar
{
    explicit StudyRegistrar(StudySpec spec);
};

/**
 * Runner options resolved from overrides/env: workers, result-cache
 * opt-in (`--set cache=1` / CDCS_CACHE) and budget. `default_cache`
 * is the fallback when neither `--set cache` nor CDCS_CACHE is given
 * (true when any study of the batch declares a repeated lineup).
 */
ExperimentRunner::Options
runnerOptions(const Overrides &overrides, bool default_cache = false);

/**
 * Run one study: resolve its config (defaults < CDCS_* env <
 * spec.configure < overrides) and mix count, run the body, and emit
 * the cache footer when the result cache is enabled. Returns 0 on
 * success.
 */
int runStudy(const StudySpec &spec, const Overrides &overrides,
             ExperimentRunner &runner, ReportSink &sink);

/** The `cdcs_studies` CLI (list / run, --set, --format). */
int studiesCliMain(int argc, char **argv);

} // namespace cdcs

#endif // CDCS_SIM_STUDY_HH
