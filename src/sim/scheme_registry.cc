#include "sim/scheme_registry.hh"

#include "common/log.hh"

namespace cdcs
{

SchemeRegistry::SchemeRegistry()
{
    makers.emplace("snuca", [] { return SchemeSpec::snuca(); });
    makers.emplace("rnuca", [] { return SchemeSpec::rnuca(); });
    makers.emplace("jigsaw-c", [] {
        return SchemeSpec::jigsaw(InitialSched::Clustered);
    });
    makers.emplace("jigsaw-r", [] {
        return SchemeSpec::jigsaw(InitialSched::Random);
    });
    makers.emplace("cdcs", [] { return SchemeSpec::cdcs(); });
    // The Fig. 12 factor-analysis variants on Jigsaw+R.
    makers.emplace("jigsaw+l",
                   [] { return SchemeSpec::factor(true, false, false); });
    makers.emplace("jigsaw+t",
                   [] { return SchemeSpec::factor(false, true, false); });
    makers.emplace("jigsaw+d",
                   [] { return SchemeSpec::factor(false, false, true); });
    makers.emplace("jigsaw+ltd",
                   [] { return SchemeSpec::factor(true, true, true); });
}

const SchemeRegistry &
SchemeRegistry::instance()
{
    static const SchemeRegistry registry;
    return registry;
}

bool
SchemeRegistry::build(const std::string &name, SchemeSpec *out) const
{
    const auto it = makers.find(name);
    if (it != makers.end()) {
        *out = it->second();
        return true;
    }
    // Fall back to display names ("S-NUCA", "Jigsaw+R", "+LTD"...),
    // so names read back from results re-resolve to specs.
    for (const auto &[key, make] : makers) {
        SchemeSpec spec = make();
        if (spec.name == name) {
            *out = std::move(spec);
            return true;
        }
    }
    return false;
}

bool
SchemeRegistry::contains(const std::string &name) const
{
    SchemeSpec spec;
    return build(name, &spec);
}

std::vector<std::string>
SchemeRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(makers.size());
    for (const auto &[key, make] : makers)
        out.push_back(key);
    return out; // std::map iteration is already sorted.
}

SchemeSpec
schemeByName(const std::string &name)
{
    SchemeSpec spec;
    if (!SchemeRegistry::instance().build(name, &spec)) {
        std::string known;
        for (const std::string &k : SchemeRegistry::instance().names())
            known += known.empty() ? k : ", " + k;
        fatal("unknown scheme '%s' (registered: %s)", name.c_str(),
              known.c_str());
    }
    return spec;
}

std::vector<SchemeSpec>
schemesByName(const std::vector<std::string> &names)
{
    std::vector<SchemeSpec> out;
    out.reserve(names.size());
    for (const std::string &name : names)
        out.push_back(schemeByName(name));
    return out;
}

} // namespace cdcs
