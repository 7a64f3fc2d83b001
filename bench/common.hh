/**
 * @file
 * Shared helpers for the per-figure benchmark binaries — now a thin
 * adapter over the src/exp campaign engine.  Each binary runs a
 * named campaign from the paper registry: jobs execute in parallel
 * on the work-stealing pool (results are deterministic regardless of
 * thread count), per-job progress goes through util/logging with a
 * [campaign:job workload/config] prefix, a BENCH_<name>.json
 * artifact is written next to the paper-style tables, and when
 * CGP_RUN_DIR is set the run is resumable after a kill.
 *
 * Environment knobs:
 *   CGP_BENCH_THREADS  worker threads (default: hardware)
 *   CGP_RUN_DIR        parent dir for resumable run dirs (default off)
 *   CGP_ARTIFACT_DIR   where BENCH_*.json goes (default ".")
 */

#ifndef CGP_BENCH_COMMON_HH
#define CGP_BENCH_COMMON_HH

#include <cstdlib>
#include <string>

#include "exp/artifact.hh"
#include "exp/campaigns.hh"
#include "exp/engine.hh"
#include "harness/simulator.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace cgp::bench
{

inline unsigned
envThreads()
{
    if (const char *env = std::getenv("CGP_BENCH_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            return static_cast<unsigned>(v);
        cgp_warn("ignoring bad CGP_BENCH_THREADS value '", env, "'");
    }
    return 0; // hardware concurrency
}

/**
 * Run a campaign from the paper registry with the engine, sharing
 * one workload bank across all campaigns of the process, and write
 * its BENCH_<name>.json artifact.
 */
inline exp::CampaignRun
runPaperCampaign(const std::string &name)
{
    static exp::PaperWorkloadBank bank;
    const exp::CampaignSpec spec = exp::paperCampaign(name);

    exp::EngineOptions opts;
    opts.threads = envThreads();
    if (const char *dir = std::getenv("CGP_RUN_DIR"))
        opts.runDir = std::string(dir) + "/" + name;

    const exp::CampaignRun run =
        exp::runCampaign(spec, bank, opts);

    std::string artifact_dir = ".";
    if (const char *dir = std::getenv("CGP_ARTIFACT_DIR"))
        artifact_dir = dir;
    const std::string artifact =
        artifact_dir + "/BENCH_" + name + ".json";
    exp::writeBenchJson(artifact, run);
    cgp_inform("[", name, "] ", run.executed, " jobs run, ",
               run.skipped, " resumed, ", run.threadsUsed,
               " threads, ", TablePrinter::fixed(run.wallSeconds, 1),
               "s; artifact ", artifact);
    return run;
}

} // namespace cgp::bench

#endif // CGP_BENCH_COMMON_HH
