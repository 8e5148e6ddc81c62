#include "sim/system.hh"

namespace cdcs
{

SchemeSpec
SchemeSpec::snuca()
{
    SchemeSpec spec;
    spec.name = "S-NUCA";
    spec.kind = SchemeKind::SNuca;
    return spec;
}

SchemeSpec
SchemeSpec::rnuca()
{
    SchemeSpec spec;
    spec.name = "R-NUCA";
    spec.kind = SchemeKind::RNuca;
    return spec;
}

SchemeSpec
SchemeSpec::jigsaw(InitialSched sched)
{
    SchemeSpec spec;
    spec.name = sched == InitialSched::Random ? "Jigsaw+R" : "Jigsaw+C";
    spec.kind = SchemeKind::Partitioned;
    spec.cdcsOpts.latencyAwareAlloc = false;
    spec.cdcsOpts.placeThreads = false;
    spec.cdcsOpts.refineTrades = false;
    spec.moves = MoveScheme::BulkInvalidate;
    spec.sched = sched;
    return spec;
}

SchemeSpec
SchemeSpec::cdcs()
{
    SchemeSpec spec;
    spec.name = "CDCS";
    spec.kind = SchemeKind::Partitioned;
    return spec;
}

SchemeSpec
SchemeSpec::factor(bool l, bool t, bool d)
{
    SchemeSpec spec = jigsaw(InitialSched::Random);
    spec.cdcsOpts.latencyAwareAlloc = l;
    spec.cdcsOpts.placeThreads = t;
    spec.cdcsOpts.refineTrades = d;
    spec.name = "Jigsaw+R";
    if (l || t || d) {
        // Built in a local first: repeated assign-then-append on the
        // member trips GCC 12's -Wrestrict false positive.
        std::string name = "+";
        if (l)
            name += "L";
        if (t)
            name += "T";
        if (d)
            name += "D";
        spec.name = std::move(name);
    }
    if (l && t && d) {
        spec.name = "CDCS(+LTD)";
        spec.moves = MoveScheme::DemandBackground;
    }
    return spec;
}

System::System(const SystemConfig &config, const SchemeSpec &scheme,
               WorkloadMix workload)
    : cfg(config), spec(scheme), mix(std::move(workload)),
      platform(cfg, spec, mix), result(),
      threadCore(platform.initialPlacement),
      path(cfg, platform, mix, threadCore, result),
      controller(cfg, platform, path, mix, threadCore, result)
{
    if (cfg.dynamicTraffic()) {
        TrafficConfig traffic;
        traffic.skewAlpha = cfg.skewAlpha;
        traffic.skewFraction = cfg.skewFraction;
        traffic.skewLines = cfg.skewLines;
        traffic.skewHotLines = cfg.skewHotLines;
        traffic.skewPageHot = cfg.skewPageHot;
        traffic.skewDriftEpochs = cfg.skewDriftEpochs;
        traffic.skewDriftFraction = cfg.skewDriftFraction;
        traffic.churn = cfg.churn;
        traffic.seed = cfg.seed;
        mix.attachTraffic(traffic);
    }
}

const PartitionedNucaPolicy *
System::partitionedPolicy() const
{
    return dynamic_cast<const PartitionedNucaPolicy *>(
        platform.policy.get());
}

RunResult
System::run()
{
    controller.runEpochs();
    controller.assemble();
    return result;
}

} // namespace cdcs
