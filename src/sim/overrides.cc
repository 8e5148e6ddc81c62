#include "sim/overrides.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <type_traits>

#include <unistd.h>

#include "cache/cache_array.hh"
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
 * Parse `text` as a T. Strict: no whitespace, `+` sign, stray suffix,
 * sign on an unsigned type, value past the type's range, or
 * non-finite double. `*out` is written only on success.
 */
template <typename T>
bool
parseAs(const std::string &text, T *out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        *out = text;
        return true;
    } else if constexpr (std::is_same_v<T, bool>) {
        return parseBool(text, out);
    } else if constexpr (std::is_arithmetic_v<T>) {
        const char *last = text.data() + text.size();
        T value{};
        const auto [end, ec] = std::from_chars(text.data(), last, value);
        if (ec != std::errc() || end != last || !std::isfinite(value))
            return false;
        *out = value;
        return true;
    } else {
        return false; // Enums: only code sets them.
    }
}

template <typename T>
const char *
typeName()
{
    if constexpr (std::is_same_v<T, std::string>)
        return "string";
    else if constexpr (std::is_same_v<T, bool>)
        return "bool";
    else if constexpr (std::is_floating_point_v<T>)
        return "double";
    else if constexpr (std::is_signed_v<T>)
        return "int";
    else
        return "uint";
}

std::vector<std::string>
splitChoices(const char *choices)
{
    std::vector<std::string> out;
    std::istringstream words(choices != nullptr ? choices : "");
    for (std::string word; words >> word;)
        out.push_back(word);
    return out;
}

/** Why `value` lies outside `rule`'s bounds; empty when inside. */
std::string
boundsProblem(double value, const FieldRule &rule)
{
    const auto num = [](double bound) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.15g", bound);
        return std::string(buf);
    };
    if (rule.openMin ? value <= rule.min : value < rule.min)
        return (rule.openMin ? "must be above " : "minimum ") +
            num(rule.min);
    if (rule.openMax ? value >= rule.max : value > rule.max)
        return (rule.openMax ? "must be below " : "maximum ") +
            num(rule.max);
    return "";
}

/** Why `text` is no value of type T under `rule`; empty if it is. */
template <typename T>
std::string
valueProblem(const std::string &text, const FieldRule &rule)
{
    T value{};
    if (!parseAs(text, &value))
        return std::string("expected ") + typeName<T>();
    if constexpr (std::is_same_v<T, std::string>) {
        const std::vector<std::string> names =
            splitChoices(rule.choices);
        if (!names.empty() &&
            std::find(names.begin(), names.end(), text) == names.end()) {
            std::string problem = "expected one of:";
            for (const std::string &n : names)
                problem += " " + n;
            return problem;
        }
    } else if constexpr (std::is_arithmetic_v<T> &&
                         !std::is_same_v<T, bool>) {
        return boundsProblem(static_cast<double>(value), rule);
    }
    return "";
}

/**
 * One study knob: read by runStudy, runnerOptions and the study
 * bodies through knob()/strKnob(), never stored in SystemConfig, so
 * the result-cache key never sees it; `reason` says why it need not.
 */
struct Knob
{
    const char *name;
    const char *type; ///< "uint", "bool" or "string".
    FieldRule rule;
    const char *reason;
};

using R = FieldRule;

const Knob knobs[] = {
    {"mixes", "uint", R(), "each run keys its own MixSpec"},
    // Each worker is an OS thread: 1024 is past any host's cores and
    // keeps a typo from asking for millions of threads.
    {"workers", "uint", R().atMost(1024), "parallelism only"},
    {"apps", "uint", R(), "the mix size; MixSpec is keyed"},
    {"saIters", "uint", R(), "copied into keyed saIterations"},
    {"table3Iters", "uint", R(), "repeats wall-clock timing"},
    {"cacheDir", "string", R(), "where the result store lives"},
    {"timing", "bool", R(), "reporting-only: timing footer"},
    {"trace", "string", R(), "reporting-only: trace file"},
    {"jsonDir", "string", R(), "reporting-only: artifact dir"},
};

/** The CDCS_* environment variables and the keys they set. */
const std::pair<const char *, const char *> envAliasTable[] = {
    {"CDCS_MIXES", "mixes"},
    {"CDCS_EPOCH_ACCESSES", "epochAccesses"},
    {"CDCS_EPOCHS", "epochs"},
    {"CDCS_WARMUP", "warmup"},
    {"CDCS_WORKERS", "workers"},
    {"CDCS_JSON_DIR", "jsonDir"},
    {"CDCS_CACHE_DIR", "cacheDir"},
    {"CDCS_TIMING", "timing"},
    {"CDCS_TRACE", "trace"},
    {"CDCS_TRACE_BIN", "traceBinCycles"},
    {"CDCS_APPS", "apps"},
    {"CDCS_SA_ITERS", "saIters"},
    {"CDCS_TABLE3_ITERS", "table3Iters"},
};

/**
 * visit(key, slot, rule) for every `--set` key: each settable field
 * of a default SystemConfig, then each study knob on a throwaway slot
 * of its type.
 */
template <typename Visit>
void
forEachKey(Visit &&visit)
{
    SystemConfig defaults;
    forEachField(defaults, [&visit](const char *name, auto &field,
                                    const FieldRule &rule) {
        if (rule.settable)
            visit(name, field, rule);
    });
    std::uint64_t number = 0;
    bool flag = false;
    std::string text;
    for (const Knob &k : knobs) {
        const std::string type = k.type;
        if (type == "uint")
            visit(k.name, number, k.rule);
        else if (type == "bool")
            visit(k.name, flag, k.rule);
        else
            visit(k.name, text, k.rule);
    }
}

/** The C++ type of a forEachKey slot. */
template <typename Slot>
using SlotType = std::remove_reference_t<Slot>;

} // anonymous namespace

bool
Overrides::insert(std::size_t pos, std::string key, std::string value,
                  std::string *err)
{
    bool known = false;
    std::string problem;
    forEachKey([&](const char *name, auto &slot, const FieldRule &rule) {
        if (!known && key == name) {
            known = true;
            problem = valueProblem<SlotType<decltype(slot)>>(value, rule);
        }
    });
    if (!known) {
        if (err != nullptr)
            *err = "unknown override key '" + key + "'";
        return false;
    }
    if (!problem.empty()) {
        if (err != nullptr)
            *err = "bad value '" + value + "' for " + key + " (" +
                problem + ")";
        return false;
    }
    // The one value check the rule table cannot express.
    if (key == "churn" &&
        !TrafficSchedule::parseChurn(value, nullptr, err))
        return false;
    entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(pos),
                   Entry{std::move(key), std::move(value)});
    return true;
}

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
    return insert(entries.size(), kv.substr(0, eq), kv.substr(eq + 1),
                  err);
}

bool
Overrides::addEnvironment(std::string *err)
{
    // A set CDCS_* variable that no alias names (a typo, or a knob
    // that no longer exists) is refused like an unknown --set key.
    for (char **var = environ; *var != nullptr; var++) {
        const std::string_view entry(*var);
        const std::string_view name = entry.substr(0, entry.find('='));
        const bool empty = name.size() + 1 >= entry.size();
        if (name.rfind("CDCS_", 0) != 0 || empty)
            continue;
        if (std::none_of(std::begin(envAliasTable),
                         std::end(envAliasTable),
                         [name](const auto &alias) {
                             return name == alias.first;
                         })) {
            if (err != nullptr)
                *err = "unknown environment variable '" +
                    std::string(name) + "'";
            return false;
        }
    }
    for (const auto &[var, key] : envAliasTable) {
        const char *value = std::getenv(var);
        if (value == nullptr || *value == '\0')
            continue;
        if (!insert(envEntries, key, value, err)) {
            if (err != nullptr)
                *err = std::string(var) + ": " + *err;
            return false;
        }
        envEntries++;
    }
    return true;
}

bool
Overrides::validate(std::string *err) const
{
    SystemConfig cfg;
    apply(cfg);
    const std::uint64_t lines = cfg.bankLines;
    const std::uint64_t ways = cfg.bankWays;
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
Overrides::apply(SystemConfig &cfg,
                 const std::function<void(SystemConfig &)> &configure)
    const
{
    const auto apply_entries = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; i++) {
            const Entry &entry = entries[i];
            forEachField(cfg, [&entry](const char *name, auto &field,
                                       const FieldRule &rule) {
                if (rule.settable && entry.key == name)
                    parseAs(entry.value, &field);
            });
        }
    };
    apply_entries(0, envEntries);
    if (configure)
        configure(cfg);
    apply_entries(envEntries, entries.size());
}

std::uint64_t
Overrides::knob(const char *key, std::uint64_t fallback) const
{
    // add() accepted the value as the knob's type, so it is never
    // empty, and "0"/"1" read the same as bool or uint.
    const std::string value = strKnob(key, "");
    bool flag = false;
    if (parseBool(value, &flag))
        return flag ? 1 : 0;
    std::uint64_t number = fallback;
    parseAs(value, &number);
    return number;
}

std::string
Overrides::strKnob(const char *key, const std::string &fallback) const
{
    // Environment entries come first, so the last match wins.
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        if (it->key == key)
            return it->value;
    }
    return fallback;
}

std::vector<std::string>
Overrides::choices(const std::string &key)
{
    std::vector<std::string> names;
    forEachKey([&](const char *name, auto &, const FieldRule &rule) {
        if (key == name)
            names = splitChoices(rule.choices);
    });
    return names;
}

std::vector<std::pair<std::string, std::string>>
Overrides::knownKeys()
{
    std::vector<std::pair<std::string, std::string>> keys;
    forEachKey([&keys](const char *name, auto &slot, const FieldRule &) {
        keys.emplace_back(name, typeName<SlotType<decltype(slot)>>());
    });
    return keys;
}

std::vector<std::pair<std::string, std::string>>
Overrides::envAliases()
{
    return {std::begin(envAliasTable), std::end(envAliasTable)};
}

} // namespace cdcs
