#include "exp/campaigns.hh"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "exp/figures.hh"
#include "harness/workload.hh"
#include "spec/cpu2000.hh"

namespace cgp::exp
{

namespace
{

/** The smoke campaign's tiny synthetic programs (~100K instrs). */
spec::SpecProgramSpec
smokeProgram(const std::string &name, unsigned functions,
             double workPerCall)
{
    spec::SpecProgramSpec s;
    s.name = name;
    s.functions = functions;
    s.hotFunctions = functions / 2;
    s.workPerCall = workPerCall;
    s.trainInstrs = 120'000;
    s.testInstrs = 30'000;
    return s;
}

SimConfig
cgp4om()
{
    return SimConfig::withCgp(LayoutKind::PettisHansen, 4);
}

} // anonymous namespace

const std::vector<std::string> &
dbWorkloadNames()
{
    static const std::vector<std::string> names = {
        "wisc-prof", "wisc-large-1", "wisc-large-2", "wisc+tpch"};
    return names;
}

std::vector<std::string>
cpu2000WorkloadNames()
{
    std::vector<std::string> names;
    for (const spec::SpecProgramSpec &s : spec::cpu2000Suite())
        names.push_back(s.name);
    return names;
}

const std::vector<std::string> &
smokeWorkloadNames()
{
    static const std::vector<std::string> names = {"smoke-a",
                                                   "smoke-b"};
    return names;
}

PaperWorkloadBank::PaperWorkloadBank()
    : scale_(WorkloadFactory::scale())
{
}

std::string
PaperWorkloadBank::identity() const
{
    // The shortest text that reads back as the same double.
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, scale_).ptr;
    return "scale=" + std::string(buf, end);
}

Workload
PaperWorkloadBank::resolve(const std::string &name)
{
    auto it = cache_.find(name);
    if (it != cache_.end())
        return it->second;

    const auto &db = dbWorkloadNames();
    if (!dbBuilt_ &&
        std::find(db.begin(), db.end(), name) != db.end()) {
        DbWorkloadSet set = WorkloadFactory::buildDbSet(scale_);
        for (Workload &w : set.workloads)
            cache_.emplace(w.name, std::move(w));
        dbBuilt_ = true;
        return cache_.at(name);
    }

    if (!cpuBuilt_) {
        const std::vector<std::string> cpu = cpu2000WorkloadNames();
        if (std::find(cpu.begin(), cpu.end(), name) != cpu.end()) {
            for (Workload &w :
                 WorkloadFactory::buildCpu2000Suite(scale_))
                cache_.emplace(w.name, std::move(w));
            cpuBuilt_ = true;
            return cache_.at(name);
        }
    }

    if (name == "smoke-a" || name == "smoke-b") {
        const auto program = name == "smoke-a"
            ? smokeProgram("smoke-a", 60, 50.0)
            : smokeProgram("smoke-b", 90, 70.0);
        Workload w = WorkloadFactory::buildSpec(program, scale_);
        cache_.emplace(name, w);
        return w;
    }

    throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace
{

CampaignSpec
makeFig4()
{
    CampaignSpec s;
    s.name = "fig4";
    s.title = "Figure 4 — O5 vs OM vs CGP";
    s.workloads = dbWorkloadNames();
    s.explicitConfigs = {
        SimConfig::o5(),
        SimConfig::o5Om(),
        SimConfig::withCgp(LayoutKind::Original, 2),
        SimConfig::withCgp(LayoutKind::Original, 4),
        SimConfig::withCgp(LayoutKind::PettisHansen, 2),
        SimConfig::withCgp(LayoutKind::PettisHansen, 4),
    };
    return s;
}

CampaignSpec
makeFig5()
{
    CampaignSpec s;
    s.name = "fig5";
    s.title = "Figure 5 — CGP_4 by CGHC size";
    s.workloads = dbWorkloadNames();
    const std::pair<const char *, CghcConfig> geoms[] = {
        {"CGHC-1K", CghcConfig::oneLevel1K()},
        {"CGHC-32K", CghcConfig::oneLevel32K()},
        {"CGHC-1K+16K", CghcConfig::twoLevel1K16K()},
        {"CGHC-2K+32K", CghcConfig::twoLevel2K32K()},
        {"CGHC-Inf", CghcConfig::infiniteSize()},
    };
    for (const auto &[label, geom] : geoms) {
        s.explicitConfigs.push_back(
            SimConfig::withCgpGeometry(LayoutKind::PettisHansen, 4, geom));
        s.explicitLabels.push_back(label);
    }
    return s;
}

CampaignSpec
makeFig6()
{
    CampaignSpec s;
    s.name = "fig6";
    s.title = "Figure 6 — NL vs CGP vs perfect I-cache";
    s.workloads = dbWorkloadNames();
    s.explicitConfigs = {
        SimConfig::o5(),
        SimConfig::o5Om(),
        SimConfig::withNL(LayoutKind::PettisHansen, 2),
        SimConfig::withNL(LayoutKind::PettisHansen, 4),
        SimConfig::withCgp(LayoutKind::PettisHansen, 2),
        SimConfig::withCgp(LayoutKind::PettisHansen, 4),
        SimConfig::perfectICacheOn(LayoutKind::PettisHansen),
    };
    return s;
}

CampaignSpec
makeFig10()
{
    CampaignSpec s;
    s.name = "fig10";
    s.title = "Figure 10 — CPU2000";
    s.workloads = cpu2000WorkloadNames();
    s.explicitConfigs = {
        SimConfig::o5Om(),
        SimConfig::withNL(LayoutKind::PettisHansen, 4),
        cgp4om(),
        SimConfig::perfectICacheOn(LayoutKind::PettisHansen),
    };
    return s;
}

CampaignSpec
makeAblationRanl()
{
    CampaignSpec s;
    s.name = "ablation-ranl";
    s.title = "Run-ahead NL ablation (§5.6)";
    s.workloads = dbWorkloadNames();
    s.explicitConfigs = {
        SimConfig::o5Om(),
        SimConfig::withNL(LayoutKind::PettisHansen, 4),
        SimConfig::withRunAheadNL(LayoutKind::PettisHansen, 4, 2),
        SimConfig::withRunAheadNL(LayoutKind::PettisHansen, 4, 4),
        SimConfig::withRunAheadNL(LayoutKind::PettisHansen, 4, 8),
    };
    return s;
}

CampaignSpec
makeAblationDepth()
{
    CampaignSpec s;
    s.name = "ablation-design-depth";
    s.title = "CGP_N depth sweep (OM binary)";
    s.workloads = dbWorkloadNames();
    for (const unsigned n : {1u, 2u, 4u, 6u, 8u}) {
        s.explicitConfigs.push_back(
            SimConfig::withCgp(LayoutKind::PettisHansen, n));
    }
    return s;
}

CampaignSpec
makeAblationSwCgp()
{
    CampaignSpec s;
    s.name = "ablation-swcgp";
    s.title = "Software CGP vs hardware CGP (§6)";
    s.workloads = dbWorkloadNames();
    s.explicitConfigs = {
        SimConfig::o5Om(),
        SimConfig::withNL(LayoutKind::PettisHansen, 4),
        SimConfig::withSoftwareCgp(LayoutKind::PettisHansen, 4),
        cgp4om(),
    };
    return s;
}

CampaignSpec
makeAblationAssoc()
{
    CampaignSpec s;
    s.name = "ablation-swcgp-assoc";
    s.title = "CGHC associativity (§3.2)";
    s.workloads = dbWorkloadNames();
    for (const unsigned a : {1u, 2u, 4u}) {
        CghcConfig geom = CghcConfig::twoLevel2K32K();
        geom.assoc = a;
        s.explicitConfigs.push_back(SimConfig::withCgpGeometry(
            LayoutKind::PettisHansen, 4, geom));
        s.explicitLabels.push_back(geom.describe());
    }
    return s;
}

CampaignSpec
makeFigDDstall()
{
    CampaignSpec s;
    s.name = "figD_dstall";
    s.title = "Figure D — D-side prefetching (beyond the paper)";
    // One pure-Wisconsin mix and the Wisconsin+TPC-H mix: the
    // acceptance bar is a demand-miss reduction on both.
    s.workloads = {"wisc-large-1", "wisc+tpch"};
    s.explicitConfigs = {
        SimConfig::o5(),
        SimConfig::withDPrefetch(DataPrefetchKind::Stride),
        SimConfig::withDPrefetch(DataPrefetchKind::Correlation),
        SimConfig::withDPrefetch(DataPrefetchKind::Semantic),
        SimConfig::withDPrefetch(DataPrefetchKind::Combined),
    };
    return s;
}

CampaignSpec
makeFigIDInteraction()
{
    CampaignSpec s;
    s.name = "figID_interaction";
    s.title =
        "Figure ID — I+D prefetch interaction on the shared L2 port";
    // Same two mixes as figD_dstall.  Four points: each side alone,
    // both un-throttled (they fight for the port), both behind the
    // accuracy-gated arbiter.
    s.workloads = {"wisc-large-1", "wisc+tpch"};
    s.explicitConfigs = {
        cgp4om(),
        SimConfig::withDPrefetch(DataPrefetchKind::Combined),
        SimConfig::withIPlusD(DataPrefetchKind::Combined, false),
        SimConfig::withIPlusD(DataPrefetchKind::Combined, true),
    };
    return s;
}

CampaignSpec
makeArbiterSweep()
{
    CampaignSpec s;
    s.name = "arbiter-sweep";
    s.title = "Shared-arbiter knob sweep (accuracy gate, probe "
              "period, duplicate filter)";
    // The interaction mixes: one pure-Wisconsin, one with TPC-H —
    // the workloads the arbiter was built for.
    s.workloads = {"wisc-large-1", "wisc+tpch"};
    // Every combination, accuracy gate outermost and filter window
    // innermost.
    for (const double acc : {0.10, 0.20, 0.40}) {
        for (const unsigned probe : {4u, 8u, 16u}) {
            for (const unsigned filt : {64u, 128u, 256u}) {
                SimConfig c = SimConfig::withIPlusD(
                    DataPrefetchKind::Combined, true);
                c.mem.arbiter.lowAccuracy = acc;
                c.mem.arbiter.probePeriod = probe;
                c.mem.arbiter.filterWindow = filt;
                s.explicitConfigs.push_back(c);
                s.explicitLabels.push_back(
                    "acc" +
                    std::to_string(static_cast<int>(acc * 100 + 0.5)) +
                    "+probe" + std::to_string(probe) + "+filt" +
                    std::to_string(filt));
            }
        }
    }
    return s;
}

CampaignSpec
makeServerScale()
{
    CampaignSpec s;
    s.name = "server-scale";
    s.title = "Server scaling — cores x sessions on one shared L2";
    // The two concurrent mixes, served by the multi-core model:
    // every point runs the same closed-loop query population, so
    // cycles-to-serve and the latency percentiles compare directly
    // across core counts and prefetch configurations.
    s.workloads = {"wisc-large-1", "wisc+tpch"};
    for (const unsigned cores : {1u, 2u, 4u}) {
        for (const unsigned sessions : {16u, 256u}) {
            s.explicitConfigs.push_back(SimConfig::withServer(
                SimConfig::o5(), cores, sessions, 12));
            s.explicitConfigs.push_back(SimConfig::withServer(
                SimConfig::withIPlusD(DataPrefetchKind::Combined,
                                      true),
                cores, sessions, 12));
        }
    }
    return s;
}

CampaignSpec
makeServerSmoke()
{
    CampaignSpec s;
    s.name = "server-smoke";
    s.title = "Server smoke (2 cores x 8 sessions)";
    s.workloads = smokeWorkloadNames();
    s.explicitConfigs = {
        SimConfig::withServer(SimConfig::o5Om(), 2, 8, 4),
        SimConfig::withServer(cgp4om(), 2, 8, 4),
    };
    return s;
}

CampaignSpec
makeFigSampled()
{
    CampaignSpec s;
    s.name = "fig_sampled";
    s.title = "Figure S — sampled vs full-detail "
              "(accuracy x speedup)";
    // The two largest bundled mixes: the workloads where sampling
    // pays.  Each sampled point is compared against the full-detail
    // baseline of the same prefetch configuration — the CI must
    // contain the ground truth while the cycle loop runs >= 5x less.
    s.workloads = {"wisc-large-2", "wisc+tpch"};
    s.explicitConfigs = {
        SimConfig::o5Om(),
        cgp4om(),
        SimConfig::withSampling(SimConfig::o5Om(), 20000, 200000,
                                100000),
        SimConfig::withSampling(cgp4om(), 20000, 200000, 100000),
        SimConfig::withSampling(cgp4om(), 50000, 500000, 100000),
        SimConfig::withSampling(cgp4om(), 10000, 50000, 100000),
    };
    return s;
}

CampaignSpec
makeSampledSmoke()
{
    CampaignSpec s;
    s.name = "sampled-smoke";
    s.title = "Sampled smoke (2K windows / 10K periods)";
    // The smoke traces run ~120K instructions, so the windows must
    // be small for several periods to fit after warmup.
    s.workloads = smokeWorkloadNames();
    s.explicitConfigs = {
        SimConfig::withSampling(SimConfig::o5Om(), 2000, 10000,
                                10000),
        SimConfig::withSampling(cgp4om(), 2000, 10000, 10000),
    };
    return s;
}

CampaignSpec
makeSmoke()
{
    CampaignSpec s;
    s.name = "smoke";
    s.title = "Campaign smoke (2x2)";
    s.workloads = smokeWorkloadNames();
    s.explicitConfigs = {SimConfig::o5Om(), cgp4om()};
    return s;
}

/** The registry, in presentation order. */
const CampaignEntry registry[] = {
    {"fig4", "figures", makeFig4, printFig4},
    {"fig5", "figures", makeFig5, printFig5, "CGHC-Inf"},
    {"fig6", "figures", makeFig6, printFig6},
    {"fig10", "figures", makeFig10, printFig10},
    {"figD_dstall", "figures", makeFigDDstall, printFigD},
    {"figID_interaction", "figures", makeFigIDInteraction,
     printFigID},
    {"server-scale", "figures", makeServerScale, printServerScale},
    {"fig_sampled", "figures", makeFigSampled, printFigSampled},
    {"ablation-ranl", "ablations", makeAblationRanl,
     printAblationRanl},
    {"ablation-design-depth", "ablations", makeAblationDepth,
     nullptr},
    {"ablation-swcgp", "ablations", makeAblationSwCgp,
     printAblationSwCgp},
    {"ablation-swcgp-assoc", "ablations", makeAblationAssoc,
     printAblationAssoc},
    {"arbiter-sweep", "ablations", makeArbiterSweep, nullptr},
    {"smoke", "", makeSmoke, nullptr},
    {"server-smoke", "", makeServerSmoke, nullptr},
    {"sampled-smoke", "", makeSampledSmoke, nullptr},
};

} // anonymous namespace

const CampaignEntry *
findCampaign(const std::string &name)
{
    for (const CampaignEntry &e : registry) {
        if (name == e.name)
            return &e;
    }
    return nullptr;
}

std::vector<std::string>
campaignNames()
{
    std::vector<std::string> names;
    for (const CampaignEntry &e : registry)
        names.push_back(e.name);
    return names;
}

CampaignSpec
paperCampaign(const std::string &name)
{
    const CampaignEntry *e = findCampaign(name);
    if (e == nullptr)
        throw std::invalid_argument("unknown campaign '" + name + "'");
    return e->make();
}

std::vector<std::string>
campaignGroup(const std::string &name)
{
    if (name != "figures" && name != "ablations" && name != "all") {
        paperCampaign(name); // validates
        return {name};
    }
    std::vector<std::string> names;
    for (const CampaignEntry &e : registry) {
        const std::string group = e.group;
        if (group == name || (name == "all" && !group.empty()))
            names.push_back(e.name);
    }
    return names;
}

} // namespace cgp::exp
