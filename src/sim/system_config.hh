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
     * Network model, by NocRegistry name: "zero-load" (the paper's
     * Table 2 analytic mesh, the default) or "contention" (per-link
     * queueing delays from measured loads).
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
     * Page-to-memory-controller placement policy, by
     * MemPlacementRegistry name: "interleave" (the page hash, the
     * default), "first-touch" (NUMA-aware placement, the extension
     * Sec. III leaves to future work, cf. the Fig. 11d discussion:
     * pin each page to its first toucher's nearest controller) or
     * "contention" (first-touch plus an epoch rebalance that re-pins
     * hot pages away from saturated controllers, scored on measured
     * NoC route waits and per-controller queue load).
     */
    std::string memPlacement = "interleave";

    // ---- Far-memory tier (src/mem/mem_tiering.hh). All knobs
    // default to "no far tier": with farMemRatio == 0 no tiering
    // policy is built, no far attach links are materialized and every
    // study is byte-identical to pre-tier binaries (CI byte-diffs
    // this).

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
     * Capacity-tiering policy, by MemTieringRegistry name: "static"
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
    // identical to the static-traffic code path (CI byte-diffs this).

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
    // results, so these knobs stay out of the runner cache key and
    // default off (CI byte-diffs the default output).

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

    std::uint64_t accessesPerThreadEpoch = 50000;
    int epochs = 6;
    int warmupEpochs = 2;
    std::uint32_t chunkAccesses = 1000;

    PartitionedNucaConfig moveCfg;

    bool traceIpc = false;
    Cycles traceBinCycles = 20000;

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

} // namespace cdcs

#endif // CDCS_SIM_SYSTEM_CONFIG_HH
