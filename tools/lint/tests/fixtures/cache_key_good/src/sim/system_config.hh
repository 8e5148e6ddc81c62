// Fixture: a field list that binds every SystemConfig member once.
#ifndef FIXTURE_SYSTEM_CONFIG_HH
#define FIXTURE_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

namespace cdcs
{

struct MoveConfig
{
    std::uint64_t walkDelay = 50000;
    double allocHysteresis = 0.25;

    std::uint64_t twice() const { return 2 * walkDelay; }
};

struct SystemConfig
{
    int meshWidth = 8;
    std::uint64_t seed = 42;
    std::string statsFilter;
    MoveConfig moveCfg;

    bool
    statsEnabled() const
    {
        return !statsFilter.empty();
    }
};

template <typename Config, typename Visit>
void
forEachField(Config &c, Visit &&visit)
{
    using R = FieldRule;
    visit("meshWidth", c.meshWidth, R().atLeast(1));
    visit("seed", c.seed, R());
    visit("stats", c.statsFilter, R());
    visit("walkDelay", c.moveCfg.walkDelay, R());
    visit("allocHysteresis", c.moveCfg.allocHysteresis, R().atMost(1));
}

} // namespace cdcs

#endif
