/**
 * @file
 * The NUCA policy interface: how the system maps lines to banks, and
 * how (for partitioned schemes) the chip is reconfigured between
 * epochs. Also defines the runtime (allocation + placement algorithm)
 * interface implemented by the Jigsaw and CDCS runtimes.
 */

#ifndef CDCS_NUCA_POLICY_HH
#define CDCS_NUCA_POLICY_HH

#include <cstdint>
#include <vector>

#include "common/curve.hh"
#include "common/types.hh"
#include "mesh/mesh.hh"

namespace cdcs
{

class PlacementCostModel;

/** Bank mapping result for one access. */
struct MapResult
{
    /** Home bank under the current configuration. */
    TileId bank = invalidTile;

    /**
     * Previous home bank while a demand-move reconfiguration is in
     * flight and the line's home changed; invalidTile otherwise.
     */
    TileId oldBank = invalidTile;

    /**
     * R-NUCA page reclassification: the accessed page moved class, so
     * its lines must be flushed from `invalidateBank`.
     */
    bool invalidatePage = false;
    TileId invalidateBank = invalidTile;
    LineAddr invalidatePageBase = 0;
};

/** How lines reach their new banks on a reconfiguration (Sec. IV-H). */
enum class MoveScheme : std::uint8_t
{
    Instant,            ///< Idealized: lines teleport to new homes.
    BulkInvalidate,     ///< Jigsaw: pause cores, invalidate movers.
    DemandBackground,   ///< CDCS: demand moves + background
                        ///< invalidations.
    BackgroundMoves     ///< Sec. IV-H ablation: the background walker
                        ///< moves lines to their new banks instead of
                        ///< invalidating them (the paper found this
                        ///< performs like background invalidations
                        ///< but needs more state and a racier
                        ///< protocol).
};

/** Inputs the reconfiguration runtimes consume. */
struct RuntimeInput
{
    const Mesh *mesh = nullptr;
    int numBanks = 0;
    int banksPerTile = 1;
    std::uint64_t bankLines = 0;

    /** Allocation granularity in lines (bankLines when partitioning
     *  is unavailable, Sec. IV-I). */
    std::uint64_t allocGranule = 64;

    /** Per-VC miss curves (x: lines, y: misses per epoch). */
    std::vector<Curve> missCurves;

    /** access[t][d]: accesses of thread t to VC d this epoch. */
    std::vector<std::vector<double>> access;

    /** Current thread-to-core assignment. */
    std::vector<TileId> threadCore;

    /**
     * Effective-distance snapshot from the live network model
     * (runtime/placement_cost.hh), gathered by the EpochController
     * each epoch. Null (tests, direct runtime invocations) means the
     * zero-load hop arithmetic, which is also what a non-contended
     * snapshot computes.
     */
    const PlacementCostModel *costModel = nullptr;

    /**
     * Timing constants mirrored from the system configuration. The
     * per-hop default derives from NocConfig so it cannot silently
     * diverge from the platform's router+link timing (the config is
     * the single source of truth; Platform asserts agreement).
     */
    double hopCycles =
        static_cast<double>(NocConfig{}.routerCycles +
                            NocConfig{}.linkCycles);
    double bankAccessCycles = 9.0;
    double memAccessCycles = 120.0;
};

/** Wall-clock cost of each reconfiguration step (Table 3). */
struct RuntimeStepTimes
{
    double allocUs = 0.0;
    double threadPlaceUs = 0.0;
    double dataPlaceUs = 0.0;

    double
    totalUs() const
    {
        return allocUs + threadPlaceUs + dataPlaceUs;
    }

    bool operator==(const RuntimeStepTimes &) const = default;
};

/** Outputs of a reconfiguration runtime. */
struct RuntimeOutput
{
    /** alloc[d][b]: lines of VC d placed in bank b. */
    std::vector<std::vector<double>> alloc;

    /** New thread-to-core assignment (same as input if unchanged). */
    std::vector<TileId> threadCore;

    RuntimeStepTimes times;
};

/**
 * A reconfiguration runtime: consumes monitor output and produces VC
 * allocations/placements (and possibly a new thread placement).
 */
class ReconfigRuntime
{
  public:
    virtual ~ReconfigRuntime() = default;
    virtual RuntimeOutput reconfigure(const RuntimeInput &input) = 0;
};

/** What the policy asks the system to do at an epoch boundary. */
struct EpochDirective
{
    bool reconfigured = false;

    /** Full-chip pause (bulk invalidations); zero otherwise. */
    Cycles pauseCycles = 0;

    /** New thread placement; empty when unchanged. */
    std::vector<TileId> newThreadCore;

    /** Lines relocated instantly (Instant move scheme). */
    std::uint64_t movedLines = 0;

    /** Lines invalidated at reconfiguration time (bulk scheme). */
    std::uint64_t invalidatedLines = 0;

    RuntimeStepTimes times;
};

class PartitionedBank;

/**
 * Base class for NUCA mapping policies. The system drives it with one
 * map() per LLC access and one endEpoch() per epoch boundary.
 */
class NucaPolicy
{
  public:
    virtual ~NucaPolicy() = default;

    /** Map an access to its home bank (and move-chase target). */
    virtual MapResult map(ThreadId thread, TileId core, VcId vc,
                          LineAddr line) = 0;

    /**
     * Partition tag recorded with the line in the bank array; the
     * owning VC for partitioned schemes, 0 for unpartitioned ones.
     */
    virtual VcId
    partitionTag(VcId /*vc*/) const
    {
        return 0;
    }

    /**
     * Epoch boundary: reconfigure if the policy does so. `banks` is
     * the system's bank array (for walks/moves/target updates).
     */
    virtual EpochDirective
    endEpoch(const RuntimeInput & /*input*/,
             std::vector<PartitionedBank> & /*banks*/)
    {
        return {};
    }

    /**
     * Progress the background invalidation walker to `elapsed` cycles
     * after the last reconfiguration.
     *
     * @return Lines invalidated by this step.
     */
    virtual std::uint64_t
    advanceWalk(Cycles /*elapsed*/,
                std::vector<PartitionedBank> & /*banks*/)
    {
        return 0;
    }

    /** True while demand moves should chase lines in old banks. */
    virtual bool demandMovesActive() const { return false; }

    /** True for schemes that consume monitor curves. */
    virtual bool wantsMonitors() const { return false; }
};

} // namespace cdcs

#endif // CDCS_NUCA_POLICY_HH
