/**
 * @file
 * Typed `key=value` configuration overrides for the study API: one
 * parser behind `cdcs_studies --set` that knows every overridable
 * SystemConfig field and study knob, validates names and value types
 * up front, and resolves the default < environment < `--set`
 * precedence (the CDCS_* env knobs of EXPERIMENTS.md remain as
 * defaults for compatibility).
 */

#ifndef CDCS_SIM_OVERRIDES_HH
#define CDCS_SIM_OVERRIDES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system_config.hh"

namespace cdcs
{

/** One parsed `key=value` pair (later entries win). */
struct Override
{
    std::string key;
    std::string value; ///< Raw text (string knobs, find()).
    /**
     * Parsed once at add() time into the slot the key's type
     * selects; `u` additionally normalizes bool entries to 0/1 so
     * integer knob lookups never re-parse.
     */
    long long i = 0;
    std::uint64_t u = 0;
    double d = 0.0;
    bool b = false;
};

/** An ordered set of `--set key=value` overrides. */
class Overrides
{
  public:
    /**
     * Parse one `key=value` string. Returns false (with a message in
     * `*err`) when the input is malformed, the key is unknown, the
     * value does not parse as the key's type, or it is not one of
     * the key's choices().
     */
    bool add(const std::string &kv, std::string *err);

    /**
     * Checks across keys that add() cannot make one entry at a time.
     * The LLC bank geometry set by the last `bankLines`/`bankWays`
     * entries (defaults for unset ones) must be one the tag store can
     * build: bankLines a multiple of bankWays, a power-of-two set
     * count of at most 2^31, and at most CacheArray::maxWays ways.
     * Returns false with a message in `*err` otherwise.
     */
    bool validate(std::string *err) const;

    /**
     * Apply every SystemConfig-keyed override to `cfg` (study knobs
     * such as `mixes` are skipped; read them with knob()). Cannot
     * fail: every entry was validated and parsed by add().
     */
    void apply(SystemConfig &cfg) const;

    /** Last value set for `key`, or nullptr. */
    const std::string *find(const std::string &key) const;

    /**
     * Integer study knob with default < environment < `--set`
     * precedence: a `--set key=` value wins over the `env` variable,
     * which wins over `fallback`.
     */
    std::uint64_t knob(const char *key, const char *env,
                      std::uint64_t fallback) const;

    /** String-valued knob with the same precedence (e.g. jsonDir). */
    std::string strKnob(const char *key, const char *env,
                        const std::string &fallback) const;

    bool empty() const { return entries.empty(); }
    const std::vector<Override> &all() const { return entries; }

    /**
     * The values a key accepts when it names a model (`noc`,
     * `memPlacement`, `memTiering`, `placementCost`); empty for
     * every other key.
     */
    static std::vector<std::string> choices(const std::string &key);

    /** Every recognized key with its type, for help/docs output. */
    static std::vector<std::pair<std::string, std::string>>
    knownKeys();

  private:
    std::vector<Override> entries;
};

} // namespace cdcs

#endif // CDCS_SIM_OVERRIDES_HH
