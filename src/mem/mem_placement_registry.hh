/**
 * @file
 * String-keyed registry of memory placement policies, mirroring the
 * NocRegistry: the `memPlacement=` override (SystemConfig's
 * memPlacement field) names the policy, Platform builds it here, and
 * new policies register a factory instead of patching Platform.
 * "interleave" (the default page hash), "first-touch" (NUMA-aware
 * placement) and "contention" are pre-registered.
 */

#ifndef CDCS_MEM_MEM_PLACEMENT_REGISTRY_HH
#define CDCS_MEM_MEM_PLACEMENT_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mem/mem_placement.hh"

namespace cdcs
{

/** Policy parameters a factory may consume (from SystemConfig). */
struct MemPlacementBuildParams
{
    /** Cycles per mesh hop (router + link) for distance scoring. */
    double hopCycles = 4.0;
    /** EWMA factor on measured loads (cfg.monitorSmoothing). */
    double smoothing = 0.5;
};

/** Process-wide name -> MemPlacementPolicy factory map. */
class MemPlacementRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<MemPlacementPolicy>(
        const Mesh &, const MemPlacementBuildParams &)>;

    /** The registry, with the built-in policies pre-registered. */
    static MemPlacementRegistry &instance();

    /**
     * Register a policy under a unique key (conventionally lowercase
     * CLI-friendly, e.g. "contention"). Panics on duplicates.
     */
    void add(const std::string &name, Factory make);

    bool contains(const std::string &name) const;

    /** Registered keys, sorted. */
    std::vector<std::string> names() const;

    /**
     * Build the policy registered under `name`; panics listing the
     * registered policies when nothing matches.
     */
    std::unique_ptr<MemPlacementPolicy>
    build(const std::string &name, const Mesh &mesh,
          const MemPlacementBuildParams &params) const;

  private:
    MemPlacementRegistry();

    std::map<std::string, Factory> makers;
};

} // namespace cdcs

#endif // CDCS_MEM_MEM_PLACEMENT_REGISTRY_HH
