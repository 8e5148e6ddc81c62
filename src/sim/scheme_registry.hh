/**
 * @file
 * String-keyed registry of the NUCA schemes under test, so studies
 * and the `cdcs_studies` CLI can name their lineups declaratively
 * ("snuca", "jigsaw-r", "cdcs", "jigsaw+ltd", ...) instead of
 * hand-wiring SchemeSpec factories. Lookup also resolves a built
 * spec's display name ("S-NUCA", "Jigsaw+R"), so serialized results
 * round-trip back to specs.
 */

#ifndef CDCS_SIM_SCHEME_REGISTRY_HH
#define CDCS_SIM_SCHEME_REGISTRY_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/system_config.hh"

namespace cdcs
{

/** Process-wide name -> SchemeSpec factory map. */
class SchemeRegistry
{
  public:
    /**
     * The registry of the built-in schemes; a new variant is one
     * more entry in its constructor.
     */
    static const SchemeRegistry &instance();

    /**
     * Build the scheme registered under `name`; falls back to
     * matching registered specs' display names. Returns false when
     * nothing matches.
     */
    bool build(const std::string &name, SchemeSpec *out) const;

    bool contains(const std::string &name) const;

    /** Registered keys, sorted. */
    std::vector<std::string> names() const;

  private:
    SchemeRegistry();

    std::map<std::string, std::function<SchemeSpec()>> makers;
};

/** Build by name or panic listing the registered schemes. */
SchemeSpec schemeByName(const std::string &name);

/** Build a lineup by name, preserving order. */
std::vector<SchemeSpec>
schemesByName(const std::vector<std::string> &names);

} // namespace cdcs

#endif // CDCS_SIM_SCHEME_REGISTRY_HH
