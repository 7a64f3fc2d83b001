#include "workloads.hh"

#include <stdexcept>

namespace perfbench
{

using cgp::DataPrefetchKind;
using cgp::LayoutKind;
using cgp::SimConfig;
using cgp::exp::CampaignSpec;

namespace
{

CampaignSpec
spec(std::string name, std::vector<std::string> workloads,
     std::vector<SimConfig> configs, std::uint64_t seed)
{
    CampaignSpec s;
    s.name = std::move(name);
    s.title = s.name;
    s.workloads = std::move(workloads);
    for (SimConfig &c : configs)
        c.server.seed = seed;
    s.explicitConfigs = std::move(configs);
    // A failing job is recorded and counted by the gate instead of
    // aborting the pass.
    s.policy = cgp::exp::FailurePolicy::Degrade;
    return s;
}

SimConfig
cgp4()
{
    return SimConfig::withCgp(LayoutKind::PettisHansen, 4);
}

} // namespace

BenchWorkload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    BenchWorkload w;
    w.name = name;
    if (name == "db-fig6") {
        w.passSeconds = 4.4;
        // Figure 6 on the two mixes whose code overflows the L1-I.
        w.timed = spec(name, {"wisc-large-1", "wisc+tpch"},
                       {SimConfig::o5Om(),
                        SimConfig::withNL(LayoutKind::PettisHansen, 4),
                        cgp4(),
                        SimConfig::perfectICacheOn(
                            LayoutKind::PettisHansen)},
                       seed);
    } else if (name == "server-prof") {
        w.passSeconds = 4.3;
        // Four cores, 16 closed-loop sessions, ~100 queries drawn
        // from the wisc-prof query library.
        w.timed = spec(
            name, {"wisc-prof"},
            {SimConfig::withServer(
                SimConfig::withIPlusD(DataPrefetchKind::Combined, true),
                4, 16, 100)},
            seed);
    } else if (name == "sampled-tpch") {
        w.passSeconds = 2.3;
        w.timed = spec(name, {"wisc-large-2", "wisc+tpch"},
                       {SimConfig::withSampling(cgp4(), 20000, 200000,
                                                100000)},
                       seed);
        w.useRunDir = true;
        w.reference = spec(name + "-reference",
                           {"wisc-large-2", "wisc+tpch"}, {cgp4()},
                           seed);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

std::string
fullDetailLabel(const std::string &label)
{
    const std::size_t pos = label.find("+smp");
    return pos == std::string::npos ? label : label.substr(0, pos);
}

} // namespace perfbench
