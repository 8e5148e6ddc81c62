/**
 * @file
 * Run description types shared by every simulator layer: which NUCA
 * scheme is under test (SchemeSpec) and the simulated-platform and
 * methodology parameters (SystemConfig). Split from system.hh so the
 * Platform / AccessPath / EpochController layers and the
 * ExperimentRunner can depend on the configuration without pulling in
 * the System facade.
 */

#ifndef CDCS_SIM_SYSTEM_CONFIG_HH
#define CDCS_SIM_SYSTEM_CONFIG_HH

#include <cstdint>
#include <limits>
#include <string>

#include "mesh/mesh.hh"
#include "nuca/partitioned_nuca.hh"
#include "runtime/cdcs_runtime.hh"

namespace cdcs
{

/** Which NUCA organization a run uses. */
enum class SchemeKind : std::uint8_t
{
    SNuca,
    RNuca,
    Partitioned
};

/** Initial (static) thread scheduler. */
enum class InitialSched : std::uint8_t
{
    Random,
    Clustered
};

/** Monitor hardware used by partitioned schemes. */
enum class MonitorKind : std::uint8_t
{
    Gmon,
    Umon
};

/** Placement engine (Sec. VI-C comparators). */
enum class PlacerKind : std::uint8_t
{
    Heuristic,      ///< CDCS/Jigsaw heuristics.
    Annealed,       ///< + simulated-annealing thread placer.
    Bisection       ///< Recursive-bisection co-placement.
};

/** Full description of one scheme under test. */
struct SchemeSpec
{
    std::string name = "cdcs";
    SchemeKind kind = SchemeKind::Partitioned;
    CdcsOptions cdcsOpts;
    MoveScheme moves = MoveScheme::DemandBackground;
    InitialSched sched = InitialSched::Random;
    MonitorKind monitor = MonitorKind::Gmon;
    std::uint32_t monitorWays = 64;
    std::uint32_t monitorSets = 16;
    /**
     * Monitor sampling: 1 in 2^shift accesses. The paper uses 6
     * (1/64) with 25 ms epochs; scaled-down epochs need denser
     * sampling to keep per-epoch sample counts comparable
     * (DESIGN.md Sec. 2).
     */
    std::uint32_t monitorSampleShift = 4;
    PlacerKind placer = PlacerKind::Heuristic;
    int saIterations = 5000;

    /** S-NUCA baseline. */
    static SchemeSpec snuca();
    /** R-NUCA. */
    static SchemeSpec rnuca();
    /** Jigsaw with a random or clustered static scheduler. */
    static SchemeSpec jigsaw(InitialSched sched);
    /** Full CDCS. */
    static SchemeSpec cdcs();
    /**
     * Factor-analysis variant on Jigsaw+R (Fig. 12): enable
     * latency-aware allocation (L), thread placement (T) and/or
     * refined data placement (D).
     */
    static SchemeSpec factor(bool l, bool t, bool d);
};

/** Simulated-platform and methodology parameters. */
struct SystemConfig
{
    int meshWidth = 8;
    int meshHeight = 8;
    int banksPerTile = 1;
    std::uint64_t bankLines = 8192;     ///< 512 KB banks.
    std::uint32_t bankWays = 16;
    Cycles bankLatency = 9;
    Cycles memLatency = 120;
    NocConfig noc;

    /**
     * Network model Platform builds (the `noc=` choices): "zero-load"
     * (the paper's Table 2 analytic mesh, the default) or
     * "contention" (per-link queueing delays from measured loads).
     */
    std::string nocModel = "zero-load";
    /**
     * Contention model: injection-rate scale applied to measured
     * link utilizations (sweep load without changing the workload).
     */
    double nocInjScale = 1.0;
    /** Contention model: utilization clamp of the queueing delay. */
    double nocMaxUtil = 0.95;

    /**
     * Distance oracle the reconfiguration runtime prices placements
     * with: "noc" (default) snapshots the live network model's
     * per-route queueing waits each epoch, so placement steers VCs
     * and threads away from saturated links under `noc=contention`
     * (under the zero-load model the snapshot carries no waits and
     * reduces exactly to the flat hop arithmetic); "zero-load" forces
     * the flat hop arithmetic regardless of the network model (the
     * placement_contention study's control arm).
     */
    std::string placementCost = "noc";

    bool modelMemBandwidth = true;
    double memLinesPerCycle = 0.8;      ///< Aggregate service rate.
    int memChannels = 8;

    /**
     * Page-to-memory-controller placement policy Platform builds (the
     * `memPlacement=` choices): "interleave" (the page hash, the
     * default), "first-touch" (NUMA-aware placement, the extension
     * Sec. III leaves to future work, cf. the Fig. 11d discussion:
     * pin each page to its first toucher's nearest controller),
     * "d2choice" (first-touch onto the lighter of two hashed
     * candidate controllers) or "contention" (first-touch plus an
     * epoch rebalance that re-pins hot pages away from saturated
     * controllers, scored on measured NoC route waits and
     * per-controller queue load).
     */
    std::string memPlacement = "interleave";

    // ---- Far-memory tier (src/mem/mem_tiering.hh). All knobs
    // default to "no far tier": with farMemRatio == 0 no tiering
    // policy is built, no far attach links are materialized and every
    // study is byte-identical to pre-tier binaries (the golden case
    // fig11_mixes2_far_tier_off pins this).

    /**
     * Fraction of pages resident in the far (CXL-style) capacity
     * tier. 0 disables the far tier entirely; positive values build
     * the memTiering policy, per-tier queue state and far attach
     * links.
     */
    double farMemRatio = 0.0;
    /** Far-tier access latency (cycles; the near tier pays memLatency). */
    Cycles farMemLatency = 300;
    /** Far-tier channel count for the M/D/m queue model. */
    int farMemChannels = 4;
    /** Far-tier aggregate service rate (lines/cycle). */
    double farMemLinesPerCycle = 0.2;
    /**
     * Capacity-tiering policy Platform builds when a far tier is
     * configured (the `memTiering=` choices): "static"
     * (a fixed hash split — residency never changes) or "hotness"
     * (EWMA hotness-ranked promotion/demotion per epoch, with
     * hysteresis, cooldown and a DRAM-row migration budget).
     */
    std::string memTiering = "static";

    /** Whether a far memory tier is configured. */
    bool
    hasFarTier() const
    {
        return farMemRatio > 0.0;
    }

    // ---- Dynamic multi-tenant traffic (src/workload/traffic.hh).
    // All knobs default off: with skewAlpha == 0 and an empty churn
    // string no TrafficSchedule is attached and every RNG draw is
    // identical to the static-traffic code path (the golden case
    // fig11_mixes2_traffic_off pins this).

    /** Zipf skew of the hot-object overlay; 0 disables it. */
    double skewAlpha = 0.0;
    /** Share of accesses redirected to the overlay (when on). */
    double skewFraction = 0.2;
    /** Overlay footprint in lines (shared by all tenants). */
    std::uint64_t skewLines = 65536;
    /** Hottest ranks routed through the drifting hot-set table. */
    std::uint64_t skewHotLines = 1024;
    /**
     * Seat the hot-set table page-aligned (consecutive ranks fill
     * whole pages) instead of line-scattered, so page-level hotness
     * mirrors the Zipf line skew. The tiering study's workload shape.
     */
    bool skewPageHot = false;
    /** Re-seat part of the hot set every N epochs; 0 = static. */
    int skewDriftEpochs = 0;
    /** Fraction of the hot-set table re-seated per drift. */
    double skewDriftFraction = 0.25;
    /**
     * Thread churn schedule: comma-separated "epoch:-k" (k active
     * threads depart entering that epoch) and "epoch:+k" (k departed
     * threads rejoin, most recent first). Empty = no churn.
     */
    std::string churn;

    /** Whether any dynamic-traffic feature is enabled. */
    bool
    dynamicTraffic() const
    {
        return skewAlpha > 0.0 || !churn.empty();
    }

    // ---- Observability (src/obs/). Stats never affect simulated
    // results, but a RunResult carries the metrics trace they select,
    // so they key the result cache like every other field. They
    // default off (the golden case noc_sensitivity_obs_off pins the
    // default output).

    /**
     * StatRegistry selection recorded per epoch into the metrics
     * trace: "" or "0" = off, "1"/"all" = everything, else a comma-
     * separated list of dot-hierarchical prefixes ("noc,pool").
     */
    std::string statsFilter;
    /** Record the selected stats every Nth epoch. */
    int statsEvery = 1;

    bool
    statsEnabled() const
    {
        return !statsFilter.empty() && statsFilter != "0";
    }

    std::uint64_t accessesPerThreadEpoch = 40000;
    int epochs = 8;
    int warmupEpochs = 4;
    std::uint32_t chunkAccesses = 1000;

    PartitionedNucaConfig moveCfg;

    bool traceIpc = false;
    Cycles traceBinCycles = 25000;

    std::uint64_t seed = 42;

    /** Runtime allocation granule (bankLines when partitioning off). */
    double allocGranuleLines = 64.0;

    /**
     * EWMA factor blending each epoch's monitor curves and access
     * matrix into the values fed to the runtime (1.0 = use the raw
     * epoch values). Smoothing the sampled inputs lets the runtime
     * converge to a stable configuration (see DESIGN.md Sec. 5).
     */
    double monitorSmoothing = 0.5;

    /** Total LLC lines. */
    std::uint64_t
    llcLines() const
    {
        return static_cast<std::uint64_t>(meshWidth) * meshHeight *
            banksPerTile * bankLines;
    }
};

/**
 * What `--set` accepts for one SystemConfig field (see forEachField).
 * A numeric value must lie in [min, max] (an open end excludes the
 * bound itself); the default rule accepts any non-negative value.
 * Each setter returns the changed rule, so they chain:
 * `FieldRule().above(0).atMost(1024)`.
 */
struct FieldRule
{
    double min = 0.0;
    double max = std::numeric_limits<double>::infinity();
    bool openMin = false;
    bool openMax = false;
    /**
     * Space-separated names a string field accepts; null accepts any
     * value. Platform builds one model per name (and dies on any
     * other), so the two lists move together.
     */
    const char *choices = nullptr;
    /** False for a field only code sets (no `--set` key reaches it). */
    bool settable = true;

    constexpr FieldRule atLeast(double v) { min = v; return *this; }
    constexpr FieldRule above(double v) { openMin = true; return atLeast(v); }
    constexpr FieldRule atMost(double v) { max = v; return *this; }
    constexpr FieldRule below(double v) { openMax = true; return atMost(v); }
    constexpr FieldRule oneOf(const char *n) { choices = n; return *this; }
    constexpr FieldRule notSettable() { settable = false; return *this; }
};

/**
 * Every SystemConfig field, once: `visit(key, field, rule)` for each,
 * where `key` is the field's `--set` name. `Config` is SystemConfig or
 * const SystemConfig. Overrides parses and applies `--set` and CDCS_*
 * values through this list, and ExperimentRunner::cacheKey keys every
 * entry, so a new field is one line here
 * plus its EXPERIMENTS.md row. tools/lint/cache_key_lint.py checks
 * that the list binds every member exactly once.
 */
template <typename Config, typename Visit>
void
forEachField(Config &c, Visit &&visit)
{
    using R = FieldRule;
    visit("meshWidth", c.meshWidth, R().atLeast(1));
    visit("meshHeight", c.meshHeight, R().atLeast(1));
    visit("banksPerTile", c.banksPerTile, R().atLeast(1));
    visit("bankLines", c.bankLines, R().atLeast(1));
    visit("bankWays", c.bankWays, R().atLeast(1));
    visit("bankLatency", c.bankLatency, R());
    visit("memLatency", c.memLatency, R());
    visit("routerCycles", c.noc.routerCycles, R());
    visit("linkCycles", c.noc.linkCycles, R());
    visit("flitBits", c.noc.flitBits, R().notSettable());
    visit("headerBits", c.noc.headerBits, R().notSettable());
    visit("modelMemBandwidth", c.modelMemBandwidth, R());
    // Service rates: the queue model divides by them, and 1024
    // lines/cycle is far past any mix's miss rate.
    visit("memLinesPerCycle", c.memLinesPerCycle,
          R().above(0).atMost(1024));
    visit("memChannels", c.memChannels, R().atLeast(1));
    visit("memPlacement", c.memPlacement,
          R().oneOf("interleave first-touch d2choice contention"));
    // A fraction of the pages; 1 would leave the near tier empty.
    visit("farMemRatio", c.farMemRatio, R().below(1));
    visit("farMemLatency", c.farMemLatency, R());
    visit("farMemChannels", c.farMemChannels, R().atLeast(1));
    visit("farMemLinesPerCycle", c.farMemLinesPerCycle,
          R().above(0).atMost(1024));
    visit("memTiering", c.memTiering, R().oneOf("static hotness"));
    visit("noc", c.nocModel, R().oneOf("zero-load contention"));
    // Scales measured link loads: positive, and at 1024 a link at
    // 0.1% utilization already sits at the nocMaxUtil clamp.
    visit("nocInjScale", c.nocInjScale, R().above(0).atMost(1024));
    // A utilization: the queueing delay diverges at 1.
    visit("nocMaxUtil", c.nocMaxUtil, R().above(0).below(1));
    visit("placementCost", c.placementCost, R().oneOf("noc zero-load"));
    // A Zipf exponent: at 16, rank 2 draws 2^-16 of rank 1's share.
    visit("skewAlpha", c.skewAlpha, R().atMost(16));
    // Shares of the accesses and of the hot-set table.
    visit("skewFraction", c.skewFraction, R().atMost(1));
    visit("skewLines", c.skewLines, R().atLeast(1));
    visit("skewHotLines", c.skewHotLines, R().atLeast(1));
    visit("skewPageHot", c.skewPageHot, R());
    visit("skewDriftEpochs", c.skewDriftEpochs, R());
    visit("skewDriftFraction", c.skewDriftFraction,
          R().above(0).atMost(1));
    visit("churn", c.churn, R());
    visit("epochAccesses", c.accessesPerThreadEpoch, R());
    visit("epochs", c.epochs, R());
    visit("warmup", c.warmupEpochs, R());
    visit("chunkAccesses", c.chunkAccesses, R().atLeast(1));
    visit("traceIpc", c.traceIpc, R());
    visit("traceBinCycles", c.traceBinCycles, R().atLeast(1));
    visit("seed", c.seed, R());
    visit("stats", c.statsFilter, R());
    visit("statsEvery", c.statsEvery, R().atLeast(1));
    // Lines: the runtime truncates it to a whole line count, and 2^32
    // lines (256 GB) exceeds any LLC the tag store can hold.
    visit("allocGranuleLines", c.allocGranuleLines,
          R().atLeast(1).atMost(4294967296.0));
    // EWMA weights: outside [0, 1] the blend extrapolates.
    visit("monitorSmoothing", c.monitorSmoothing, R().atMost(1));
    // A fraction of the VC's size; at 1 a VC keeps its descriptor
    // until its allocation changes by its whole size.
    visit("allocHysteresis", c.moveCfg.allocHysteresis, R().atMost(1));
    visit("walkDelay", c.moveCfg.walkDelay, R());
    visit("walkCyclesPerSet", c.moveCfg.walkCyclesPerSet, R());
    visit("bulkCyclesPerSet", c.moveCfg.bulkCyclesPerSet, R());
    visit("moves", c.moveCfg.moves, R().notSettable());
}

} // namespace cdcs

#endif // CDCS_SIM_SYSTEM_CONFIG_HH
