/**
 * @file
 * Typed `key=value` configuration overrides for the study API: one
 * parser behind `cdcs_studies --set` and the CDCS_* environment. It
 * knows every SystemConfig field through forEachField
 * (sim/system_config.hh) and every study knob through its own table,
 * validates names, types and bounds up front, and resolves the
 * defaults < environment < study configure < `--set` precedence.
 */

#ifndef CDCS_SIM_OVERRIDES_HH
#define CDCS_SIM_OVERRIDES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/system_config.hh"

namespace cdcs
{

/** An ordered set of `key=value` overrides. */
class Overrides
{
  public:
    /**
     * Parse one `--set key=value` string. Returns false (with a
     * message in `*err`) when the input is malformed, the key is
     * unknown, the value does not parse as the key's type, lies
     * outside its bounds, or is not one of the key's choices().
     */
    bool add(const std::string &kv, std::string *err);

    /**
     * Read every set CDCS_* variable of envAliases() as an entry of
     * its key, checked like add() and ranked below every `--set`
     * entry whenever either is added. Returns false with a message
     * naming the variable on the first bad value, or on a set CDCS_*
     * variable that names no key.
     */
    bool addEnvironment(std::string *err);

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
     * Apply the SystemConfig entries to `cfg` (study knobs such as
     * `mixes` are read with knob()): the environment entries, then
     * `configure` (a study's own settings), then the `--set` entries.
     * Cannot fail: add() validated every entry.
     */
    void apply(SystemConfig &cfg,
               const std::function<void(SystemConfig &)> &configure =
                   nullptr) const;

    /**
     * Integer study knob: the last `--set` entry of `key`, else its
     * environment entry, else `fallback`. Bool knobs read as 0/1.
     */
    std::uint64_t knob(const char *key, std::uint64_t fallback) const;

    /** String-valued knob with the same precedence (e.g. jsonDir). */
    std::string strKnob(const char *key,
                        const std::string &fallback) const;

    /** Whether no `--set` entry was added (environment ones aside). */
    bool empty() const { return entries.size() == envEntries; }

    /**
     * The values a key accepts when it names a model (`noc`,
     * `memPlacement`, `memTiering`, `placementCost`); empty for
     * every other key.
     */
    static std::vector<std::string> choices(const std::string &key);

    /** Every `--set` key with its type, for help/docs output. */
    static std::vector<std::pair<std::string, std::string>>
    knownKeys();

    /** Every CDCS_* environment variable with the key it sets. */
    static std::vector<std::pair<std::string, std::string>>
    envAliases();

  private:
    struct Entry
    {
        std::string key;
        std::string value;
    };

    /** Check `key=value` and insert it at `pos` of `entries`. */
    bool insert(std::size_t pos, std::string key, std::string value,
                std::string *err);

    /** The environment entries first, then the `--set` entries. */
    std::vector<Entry> entries;
    std::size_t envEntries = 0;
};

} // namespace cdcs

#endif // CDCS_SIM_OVERRIDES_HH
