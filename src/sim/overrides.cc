#include "sim/overrides.hh"

#include <cctype>
#include <cstdlib>
#include <utility>

#include "cache/cache_array.hh"
#include "common/log.hh"
#include "mem/mem_placement_registry.hh"
#include "mem/mem_tiering_registry.hh"
#include "net/noc_registry.hh"
#include "workload/traffic.hh"

namespace cdcs
{

namespace
{

bool
parseBool(const std::string &text, bool *out)
{
    if (text == "1" || text == "true" || text == "yes" ||
        text == "on") {
        *out = true;
        return true;
    }
    if (text == "0" || text == "false" || text == "no" ||
        text == "off") {
        *out = false;
        return true;
    }
    return false;
}

/**
 * Parse `entry.value` into the slot `type` selects. Strict: no
 * leading whitespace or stray suffixes (strtoull would otherwise
 * skip whitespace and wrap "-5" to 2^64-5).
 */
bool
parseInto(Override &entry, const char *type)
{
    const std::string &text = entry.value;
    const std::string t = type;
    if (t == "string")
        return true;
    if (text.empty())
        return false;
    const char first = text[0];
    char *end = nullptr;
    if (t == "int") {
        if (!std::isdigit(static_cast<unsigned char>(first)) &&
            first != '-')
            return false;
        entry.i = std::strtoll(text.c_str(), &end, 10);
        return *end == '\0';
    }
    if (t == "uint") {
        if (!std::isdigit(static_cast<unsigned char>(first)))
            return false;
        entry.u = std::strtoull(text.c_str(), &end, 10);
        return *end == '\0';
    }
    if (t == "double") {
        if (!std::isdigit(static_cast<unsigned char>(first)) &&
            first != '-' && first != '+' && first != '.')
            return false;
        entry.d = std::strtod(text.c_str(), &end);
        return *end == '\0';
    }
    if (t == "bool") {
        if (!parseBool(text, &entry.b))
            return false;
        entry.u = entry.b ? 1 : 0;
        return true;
    }
    return false;
}

struct KeyDef
{
    const char *name;
    const char *type;
    /** Null for study knobs (consumed via Overrides::knob). */
    void (*set)(SystemConfig &, const Override &);
    /** Minimum accepted value for int/uint keys. */
    long long min = 0;
};

/**
 * Every overridable SystemConfig field. Key names match the struct
 * fields (EXPERIMENTS.md documents the few renames: epochAccesses,
 * warmup).
 */
const KeyDef configKeys[] = {
    {"meshWidth", "int",
     [](SystemConfig &c, const Override &v) {
         c.meshWidth = static_cast<int>(v.i);
     },
     /*min=*/1},
    {"meshHeight", "int",
     [](SystemConfig &c, const Override &v) {
         c.meshHeight = static_cast<int>(v.i);
     },
     /*min=*/1},
    {"banksPerTile", "int",
     [](SystemConfig &c, const Override &v) {
         c.banksPerTile = static_cast<int>(v.i);
     },
     /*min=*/1},
    {"bankLines", "uint",
     [](SystemConfig &c, const Override &v) { c.bankLines = v.u; },
     /*min=*/1},
    {"bankWays", "uint",
     [](SystemConfig &c, const Override &v) {
         c.bankWays = static_cast<std::uint32_t>(v.u);
     },
     /*min=*/1},
    {"bankLatency", "uint",
     [](SystemConfig &c, const Override &v) { c.bankLatency = v.u; }},
    {"memLatency", "uint",
     [](SystemConfig &c, const Override &v) { c.memLatency = v.u; }},
    {"routerCycles", "uint",
     [](SystemConfig &c, const Override &v) {
         c.noc.routerCycles = v.u;
     }},
    {"linkCycles", "uint",
     [](SystemConfig &c, const Override &v) {
         c.noc.linkCycles = v.u;
     }},
    {"modelMemBandwidth", "bool",
     [](SystemConfig &c, const Override &v) {
         c.modelMemBandwidth = v.b;
     }},
    {"memLinesPerCycle", "double",
     [](SystemConfig &c, const Override &v) {
         c.memLinesPerCycle = v.d;
     }},
    {"memChannels", "int",
     [](SystemConfig &c, const Override &v) {
         c.memChannels = static_cast<int>(v.i);
     },
     /*min=*/1},
    {"memPlacement", "string",
     [](SystemConfig &c, const Override &v) {
         c.memPlacement = v.value;
     }},
    {"farMemRatio", "double",
     [](SystemConfig &c, const Override &v) { c.farMemRatio = v.d; }},
    {"farMemLatency", "uint",
     [](SystemConfig &c, const Override &v) {
         c.farMemLatency = v.u;
     }},
    {"farMemChannels", "int",
     [](SystemConfig &c, const Override &v) {
         c.farMemChannels = static_cast<int>(v.i);
     },
     /*min=*/1},
    {"farMemLinesPerCycle", "double",
     [](SystemConfig &c, const Override &v) {
         c.farMemLinesPerCycle = v.d;
     }},
    {"memTiering", "string",
     [](SystemConfig &c, const Override &v) {
         c.memTiering = v.value;
     }},
    {"noc", "string",
     [](SystemConfig &c, const Override &v) {
         c.nocModel = v.value;
     }},
    {"nocInjScale", "double",
     [](SystemConfig &c, const Override &v) {
         c.nocInjScale = v.d;
     }},
    {"nocMaxUtil", "double",
     [](SystemConfig &c, const Override &v) {
         c.nocMaxUtil = v.d;
     }},
    {"placementCost", "string",
     [](SystemConfig &c, const Override &v) {
         c.placementCost = v.value;
     }},
    {"skewAlpha", "double",
     [](SystemConfig &c, const Override &v) { c.skewAlpha = v.d; }},
    {"skewFraction", "double",
     [](SystemConfig &c, const Override &v) {
         c.skewFraction = v.d;
     }},
    {"skewLines", "uint",
     [](SystemConfig &c, const Override &v) { c.skewLines = v.u; },
     /*min=*/1},
    {"skewHotLines", "uint",
     [](SystemConfig &c, const Override &v) {
         c.skewHotLines = v.u;
     },
     /*min=*/1},
    {"skewPageHot", "bool",
     [](SystemConfig &c, const Override &v) {
         c.skewPageHot = v.b;
     }},
    {"skewDriftEpochs", "int",
     [](SystemConfig &c, const Override &v) {
         c.skewDriftEpochs = static_cast<int>(v.i);
     }},
    {"skewDriftFraction", "double",
     [](SystemConfig &c, const Override &v) {
         c.skewDriftFraction = v.d;
     }},
    {"churn", "string",
     [](SystemConfig &c, const Override &v) { c.churn = v.value; }},
    {"epochAccesses", "uint",
     [](SystemConfig &c, const Override &v) {
         c.accessesPerThreadEpoch = v.u;
     }},
    {"epochs", "int",
     [](SystemConfig &c, const Override &v) {
         c.epochs = static_cast<int>(v.i);
     }},
    {"warmup", "int",
     [](SystemConfig &c, const Override &v) {
         c.warmupEpochs = static_cast<int>(v.i);
     }},
    {"chunkAccesses", "uint",
     [](SystemConfig &c, const Override &v) {
         c.chunkAccesses = static_cast<std::uint32_t>(v.u);
     },
     /*min=*/1},
    {"traceIpc", "bool",
     [](SystemConfig &c, const Override &v) { c.traceIpc = v.b; }},
    {"traceBinCycles", "uint",
     [](SystemConfig &c, const Override &v) {
         c.traceBinCycles = v.u;
     },
     /*min=*/1},
    {"seed", "uint",
     [](SystemConfig &c, const Override &v) { c.seed = v.u; }},
    {"stats", "string",
     [](SystemConfig &c, const Override &v) {
         c.statsFilter = v.value;
     }},
    {"statsEvery", "int",
     [](SystemConfig &c, const Override &v) {
         c.statsEvery = static_cast<int>(v.i);
     },
     /*min=*/1},
    {"allocGranuleLines", "double",
     [](SystemConfig &c, const Override &v) {
         c.allocGranuleLines = v.d;
     }},
    {"monitorSmoothing", "double",
     [](SystemConfig &c, const Override &v) {
         c.monitorSmoothing = v.d;
     }},
    {"allocHysteresis", "double",
     [](SystemConfig &c, const Override &v) {
         c.moveCfg.allocHysteresis = v.d;
     }},
    {"walkDelay", "uint",
     [](SystemConfig &c, const Override &v) {
         c.moveCfg.walkDelay = v.u;
     }},
    {"walkCyclesPerSet", "uint",
     [](SystemConfig &c, const Override &v) {
         c.moveCfg.walkCyclesPerSet = v.u;
     }},
    {"bulkCyclesPerSet", "uint",
     [](SystemConfig &c, const Override &v) {
         c.moveCfg.bulkCyclesPerSet = v.u;
     }},
};

/** Study-level knobs (read by runStudy / study bodies via knob()). */
const KeyDef knobKeys[] = {
    {"mixes", "uint", nullptr},       // CDCS_MIXES
    {"workers", "uint", nullptr},     // CDCS_WORKERS
    {"apps", "uint", nullptr},        // CDCS_APPS
    {"saIters", "uint", nullptr},     // CDCS_SA_ITERS
    {"table3Iters", "uint", nullptr}, // CDCS_TABLE3_ITERS
    {"cache", "bool", nullptr},       // CDCS_CACHE
    {"cacheBudget", "uint", nullptr}, // CDCS_CACHE_BUDGET
    {"cacheDir", "string", nullptr},  // CDCS_CACHE_DIR
    {"cacheStats", "bool", nullptr},  // CDCS_CACHE_STATS
    {"timing", "bool", nullptr},      // CDCS_TIMING
    {"trace", "string", nullptr},     // CDCS_TRACE
    {"jsonDir", "string", nullptr},   // CDCS_JSON_DIR
};

const KeyDef *
findKey(const std::string &name)
{
    for (const KeyDef &k : configKeys) {
        if (name == k.name)
            return &k;
    }
    for (const KeyDef &k : knobKeys) {
        if (name == k.name)
            return &k;
    }
    return nullptr;
}

} // anonymous namespace

bool
Overrides::add(const std::string &kv, std::string *err)
{
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
        if (err != nullptr)
            *err = "malformed override '" + kv +
                "' (expected key=value)";
        return false;
    }
    Override entry{kv.substr(0, eq), kv.substr(eq + 1)};
    const KeyDef *def = findKey(entry.key);
    if (def == nullptr) {
        if (err != nullptr)
            *err = "unknown override key '" + entry.key + "'";
        return false;
    }
    if (!parseInto(entry, def->type)) {
        if (err != nullptr)
            *err = "bad value '" + entry.value + "' for " +
                entry.key + " (expected " + def->type + ")";
        return false;
    }
    const std::string t = def->type;
    if ((t == "int" && entry.i < def->min) ||
        (t == "uint" &&
         entry.u < static_cast<std::uint64_t>(def->min))) {
        if (err != nullptr)
            *err = "bad value '" + entry.value + "' for " +
                entry.key + " (minimum " +
                std::to_string(def->min) + ")";
        return false;
    }
    // Keys with constraints the KeyDef table can't express.
    if (entry.key == "noc" &&
        !NocRegistry::instance().contains(entry.value)) {
        if (err != nullptr) {
            *err = "unknown noc model '" + entry.value +
                "' (registered:";
            for (const std::string &n :
                 NocRegistry::instance().names())
                *err += " " + n;
            *err += ")";
        }
        return false;
    }
    if (entry.key == "memPlacement" &&
        !MemPlacementRegistry::instance().contains(entry.value)) {
        if (err != nullptr) {
            *err = "unknown mem placement policy '" + entry.value +
                "' (registered:";
            for (const std::string &n :
                 MemPlacementRegistry::instance().names())
                *err += " " + n;
            *err += ")";
        }
        return false;
    }
    if (entry.key == "memTiering" &&
        !MemTieringRegistry::known(entry.value)) {
        if (err != nullptr) {
            *err = "unknown mem tiering policy '" + entry.value +
                "' (registered:";
            for (const std::string &n : MemTieringRegistry::names())
                *err += " " + n;
            *err += ")";
        }
        return false;
    }
    if ((entry.key == "farMemRatio" &&
         (entry.d < 0.0 || entry.d >= 1.0)) ||
        (entry.key == "farMemLinesPerCycle" && entry.d <= 0.0)) {
        if (err != nullptr)
            *err = "bad value '" + entry.value + "' for " +
                entry.key + " (out of range)";
        return false;
    }
    if (entry.key == "placementCost" && entry.value != "noc" &&
        entry.value != "zero-load") {
        if (err != nullptr)
            *err = "unknown placement cost oracle '" + entry.value +
                "' (expected noc or zero-load)";
        return false;
    }
    if ((entry.key == "nocInjScale" && entry.d <= 0.0) ||
        (entry.key == "nocMaxUtil" &&
         (entry.d <= 0.0 || entry.d >= 1.0))) {
        if (err != nullptr)
            *err = "bad value '" + entry.value + "' for " +
                entry.key + " (out of range)";
        return false;
    }
    if ((entry.key == "skewAlpha" && entry.d < 0.0) ||
        (entry.key == "skewFraction" &&
         (entry.d < 0.0 || entry.d > 1.0)) ||
        (entry.key == "skewDriftFraction" &&
         (entry.d <= 0.0 || entry.d > 1.0))) {
        if (err != nullptr)
            *err = "bad value '" + entry.value + "' for " +
                entry.key + " (out of range)";
        return false;
    }
    if (entry.key == "churn" &&
        !TrafficSchedule::parseChurn(entry.value, nullptr, err)) {
        return false;
    }
    entries.push_back(std::move(entry));
    return true;
}

bool
Overrides::validate(std::string *err) const
{
    const SystemConfig defaults;
    std::uint64_t lines = defaults.bankLines;
    std::uint64_t ways = defaults.bankWays;
    for (const Override &entry : entries) {
        if (entry.key == "bankLines")
            lines = entry.u;
        else if (entry.key == "bankWays")
            ways = entry.u;
    }
    const std::string geometry = "bankLines=" + std::to_string(lines) +
        " bankWays=" + std::to_string(ways);
    std::string problem;
    if (ways > CacheArray::maxWays) {
        problem = "more than " + std::to_string(CacheArray::maxWays) +
            " ways (the tag store's recency ranks are 8-bit)";
    } else if (lines % ways != 0) {
        problem = "bankLines is not a multiple of bankWays";
    } else {
        const std::uint64_t sets = lines / ways;
        if ((sets & (sets - 1)) != 0 || sets > (1ull << 31))
            problem = std::to_string(sets) +
                " sets, not a power of two up to 2^31";
    }
    if (problem.empty())
        return true;
    if (err != nullptr)
        *err = "bad bank geometry " + geometry + ": " + problem;
    return false;
}

void
Overrides::apply(SystemConfig &cfg) const
{
    for (const Override &entry : entries) {
        const KeyDef *def = findKey(entry.key);
        cdcs_assert(def != nullptr, "unvalidated override entry");
        if (def->set != nullptr)
            def->set(cfg, entry);
    }
}

const std::string *
Overrides::find(const std::string &key) const
{
    const std::string *found = nullptr;
    for (const Override &entry : entries) {
        if (entry.key == key)
            found = &entry.value; // Last one wins.
    }
    return found;
}

std::uint64_t
Overrides::knob(const char *key, const char *env,
                std::uint64_t fallback) const
{
    const Override *found = nullptr;
    for (const Override &entry : entries) {
        if (entry.key == key)
            found = &entry; // Last one wins.
    }
    if (found != nullptr)
        return found->u; // Bool entries normalized to 0/1 by add().
    if (env != nullptr) {
        const char *value = std::getenv(env);
        if (value != nullptr && *value != '\0')
            return std::strtoull(value, nullptr, 10);
    }
    return fallback;
}

std::string
Overrides::strKnob(const char *key, const char *env,
                   const std::string &fallback) const
{
    if (const std::string *value = find(key))
        return *value;
    if (env != nullptr) {
        const char *value = std::getenv(env);
        if (value != nullptr && *value != '\0')
            return value;
    }
    return fallback;
}

std::vector<std::pair<std::string, std::string>>
Overrides::knownKeys()
{
    std::vector<std::pair<std::string, std::string>> keys;
    for (const KeyDef &k : configKeys)
        keys.emplace_back(k.name, k.type);
    for (const KeyDef &k : knobKeys)
        keys.emplace_back(k.name, k.type);
    return keys;
}

} // namespace cdcs
