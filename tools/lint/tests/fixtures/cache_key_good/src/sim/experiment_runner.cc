// Fixture: cacheKey keys SystemConfig through the field list.
std::string
ExperimentRunner::cacheKey(const SystemConfig &cfg,
                           const SchemeSpec &scheme)
{
    std::string key;
    forEachField(cfg, [&key](const char *name, const auto &,
                             const FieldRule &) { key += name; });
    appendF(key, "spec:%d", static_cast<int>(scheme.kind));
    return key;
}
