#include "obs/stat_registry.hh"

#include <algorithm>
#include <mutex>

#include "common/log.hh"

namespace cdcs
{

namespace
{

struct Registry
{
    std::mutex mu;
    std::vector<std::string> names;          // id -> name
    std::vector<StatRegistry::Shard *> shards;
};

/** Function-local static: safe to use from namespace-scope
 * initializers in other translation units regardless of link order.
 * Heap-allocated and never destroyed: worker shards outlive their
 * threads by design, and destroying the registry at exit would drop
 * the only references to them — LeakSanitizer would then report the
 * (bounded, intentional) shard blocks as leaks. */
Registry &
registry()
{
    static Registry *r = new Registry();
    return *r;
}

} // anonymous namespace

void
StatRegistry::setEnabled(bool on)
{
    enabledFlag.store(on, std::memory_order_relaxed);
}

StatId
StatRegistry::counter(const std::string &name)
{
    auto &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (std::size_t i = 0; i < r.names.size(); i++) {
        if (r.names[i] == name)
            return static_cast<StatId>(i);
    }
    cdcs_assert(r.names.size() < maxSlots);
    r.names.push_back(name);
    return static_cast<StatId>(r.names.size() - 1);
}

std::size_t
StatRegistry::numStats()
{
    auto &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.names.size();
}

std::string
StatRegistry::name(StatId id)
{
    auto &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    if (id < 0 || static_cast<std::size_t>(id) >= r.names.size())
        return "";
    return r.names[static_cast<std::size_t>(id)];
}

StatRegistry::Snapshot
StatRegistry::snapshot()
{
    Snapshot snap;
    auto &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const Shard *shard : r.shards) {
        for (std::size_t i = 0; i < maxSlots; i++)
            snap.v[i] += shard->v[i].load(std::memory_order_relaxed);
    }
    return snap;
}

StatRegistry::Snapshot
StatRegistry::localSnapshot()
{
    Snapshot snap;
    const Shard &shard = local();
    for (std::size_t i = 0; i < maxSlots; i++)
        snap.v[i] = shard.v[i].load(std::memory_order_relaxed);
    return snap;
}

std::vector<StatId>
StatRegistry::select(const std::string &filter)
{
    std::vector<std::pair<std::string, StatId>> picked;
    if (filter.empty() || filter == "0")
        return {};

    const bool all = filter == "1" || filter == "all" ||
        filter == "true" || filter == "on";

    std::vector<std::string> prefixes;
    if (!all) {
        std::size_t pos = 0;
        while (pos <= filter.size()) {
            const std::size_t comma = filter.find(',', pos);
            const std::size_t end =
                comma == std::string::npos ? filter.size() : comma;
            if (end > pos)
                prefixes.push_back(filter.substr(pos, end - pos));
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }

    const auto matches = [&](const std::string &name) {
        if (all)
            return name.rfind("time.", 0) != 0;
        for (const auto &p : prefixes) {
            if (name == p)
                return true;
            if (name.size() > p.size() && name[p.size()] == '.' &&
                name.compare(0, p.size(), p) == 0)
                return true;
        }
        return false;
    };

    auto &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (std::size_t i = 0; i < r.names.size(); i++) {
        if (matches(r.names[i]))
            picked.push_back({r.names[i], static_cast<StatId>(i)});
    }
    std::sort(picked.begin(), picked.end());

    std::vector<StatId> ids;
    ids.reserve(picked.size());
    for (const auto &[name, id] : picked)
        ids.push_back(id);
    return ids;
}

StatRegistry::Shard &
StatRegistry::local()
{
    thread_local Shard *shard = []() {
        auto *fresh = new Shard();
        auto &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        r.shards.push_back(fresh);
        return fresh;
    }();
    return *shard;
}

} // namespace cdcs
