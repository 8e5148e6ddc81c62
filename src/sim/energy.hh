/**
 * @file
 * Per-event energy model standing in for McPAT 1.1 at 22 nm + Micron
 * DDR3L (Sec. V): a constants table applied to event counts. Only the
 * relative composition matters for the Fig. 11e breakdown; constants
 * are typical published values for a Silvermont-class 64-core CMP and
 * are documented in EXPERIMENTS.md.
 */

#ifndef CDCS_SIM_ENERGY_HH
#define CDCS_SIM_ENERGY_HH

#include <cstdint>

namespace cdcs
{

/** Energy totals by component, in joules. */
struct EnergyBreakdown
{
    double staticE = 0.0;   ///< Chip + DRAM static/leakage.
    double core = 0.0;      ///< Core dynamic (incl. L1/L2).
    double net = 0.0;       ///< NoC dynamic.
    double llc = 0.0;       ///< LLC bank accesses + monitors.
    double mem = 0.0;       ///< DRAM dynamic.

    double
    total() const
    {
        return staticE + core + net + llc + mem;
    }

    bool operator==(const EnergyBreakdown &) const = default;
};

/** Energy constants and evaluation. */
struct EnergyModel
{
    double coreDynPerInstr = 0.18e-9;   ///< J per instruction.
    double llcPerAccess = 0.45e-9;      ///< J per bank access.
    double nocPerFlitHop = 0.06e-9;     ///< J per flit-hop.
    double memPerAccess = 22.0e-9;      ///< J per 64 B DRAM access.
    double staticChipWatts = 22.0;
    double staticDramWatts = 8.0;
    double frequencyHz = 2.0e9;

    /**
     * Evaluate the breakdown from event counts.
     *
     * @param instrs Instructions retired.
     * @param llc_accesses LLC bank lookups (incl. move probes).
     * @param flit_hops NoC flit-hops.
     * @param mem_accesses DRAM line transfers.
     * @param wall_cycles Longest per-thread cycle count.
     */
    EnergyBreakdown
    evaluate(double instrs, double llc_accesses, double flit_hops,
             double mem_accesses, double wall_cycles) const
    {
        EnergyBreakdown e;
        e.core = coreDynPerInstr * instrs;
        e.llc = llcPerAccess * llc_accesses;
        e.net = nocPerFlitHop * flit_hops;
        e.mem = memPerAccess * mem_accesses;
        e.staticE = (staticChipWatts + staticDramWatts) *
            (wall_cycles / frequencyHz);
        return e;
    }
};

} // namespace cdcs

#endif // CDCS_SIM_ENERGY_HH
