// Fixture: cacheKey names a SystemConfig field itself.
std::string
ExperimentRunner::cacheKey(const SystemConfig &cfg,
                           const SchemeSpec &scheme)
{
    std::string key;
    forEachField(cfg, [&key](const char *name, const auto &,
                             const FieldRule &) { key += name; });
    key += std::to_string(cfg.meshWidth);
    appendF(key, "spec:%d", static_cast<int>(scheme.kind));
    return key;
}
