// Fixture: one seeded violation of each field-list rule.
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
};

struct SystemConfig
{
    int meshWidth = 8;
    std::uint64_t seed = 42;
    std::string statsFilter;
    MoveConfig moveCfg;

    /** A behavior knob no entry binds. */
    int fooKnob = 3;
};

template <typename Config, typename Visit>
void
forEachField(Config &c, Visit &&visit)
{
    using R = FieldRule;
    visit("meshWidth", c.meshWidth, R().atLeast(1));
    visit("seed", c.seed, R());
    visit("seedAgain", c.seed, R());
    visit("stats", c.statsFilter, R());
    visit("walkDelay", c.moveCfg.walkDelay, R());
    visit("ghost", c.ghostField, R());
}

} // namespace cdcs

#endif
