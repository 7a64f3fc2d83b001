/**
 * @file
 * Defining and running an experiment campaign programmatically:
 * declare a spec with a labeled config list, run it on the parallel
 * engine with a resumable run directory, and read results back by
 * (workload, label).
 *
 * Run it twice with the same CGP_RUN_DIR to see resume in action —
 * the second invocation loads every job instead of simulating.
 */

#include <cstdlib>
#include <iostream>

#include "exp/artifact.hh"
#include "exp/engine.hh"
#include "harness/workload.hh"
#include "spec/cpu2000.hh"

int
main()
{
    using namespace cgp;

    // A campaign is data: workloads x a labeled list of configs.
    exp::CampaignSpec spec;
    spec.name = "example";
    spec.title = "Prefetch depth on a tiny SPEC proxy";
    spec.workloads = {"proxy"};
    for (const unsigned n : {1u, 2u, 4u, 8u}) {
        spec.explicitConfigs.push_back(
            SimConfig::withCgp(LayoutKind::PettisHansen, n));
        spec.explicitLabels.push_back("CGP_" + std::to_string(n));
    }

    // Workloads are resolved by name, once, before the pool starts.
    spec::SpecProgramSpec program;
    program.name = "proxy";
    program.functions = 60;
    program.hotFunctions = 30;
    program.workPerCall = 50.0;
    program.trainInstrs = 120'000;
    program.testInstrs = 30'000;
    exp::InMemoryProvider provider(
        {WorkloadFactory::buildSpec(program)});

    exp::EngineOptions opt;
    opt.threads = 4;
    // Per-job progress lines land in completion order, which varies
    // with scheduling; examples keep stdout byte-deterministic.
    opt.verbose = false;
    if (const char *dir = std::getenv("CGP_RUN_DIR"))
        opt.runDir = std::string(dir) + "/example";

    const exp::CampaignRun run =
        exp::runCampaign(spec, provider, opt);

    exp::printCycleTables(run, std::cout);
    std::cout << "\nexecuted " << run.executed << ", resumed "
              << run.skipped << ", threads " << run.threadsUsed
              << "\n";

    // Individual results are addressable by (workload, label).
    const SimResult &best = run.at("proxy", "CGP_4");
    std::cout << "CGP_4 cycles: " << best.cycles << "\n";
    return 0;
}
