/**
 * @file
 * The benchmark's workloads: fixed job lists over the paper's DB
 * workload set, expressed as campaign specs so the untimed and the
 * traced runs execute exactly the same (workload, config) points.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/campaign.hh"

namespace perfbench
{

/** Trace scale handed to WorkloadFactory::buildDbSet. */
constexpr double benchScale = 0.03;

struct BenchWorkload
{
    std::string name;

    /** Host seconds of one untraced pass (a set-up plus the job lists)
     *  on an unloaded x86-64 VM.  An untraced run makes --seconds /
     *  passSeconds passes, a count that does not depend on how fast the
     *  host happens to be during the run. */
    double passSeconds = 0.0;

    /** The timed job list (its host time is wall_s). */
    cgp::exp::CampaignSpec timed;

    /** Timed jobs go through a run directory (checkpoints and
     *  sealed artifacts on the measured path). */
    bool useRunDir = false;

    /** Full-detail twin of `timed`, timed separately as the
     *  reference for sampled_speedup and sampled_cpi_err. */
    std::optional<cgp::exp::CampaignSpec> reference;
};

/**
 * Build the named workload; @p seed goes to ServerConfig::seed of
 * every config (the only randomness in these job lists).
 * @throws std::invalid_argument for an unknown name.
 */
BenchWorkload makeWorkload(const std::string &name, std::uint64_t seed);

/** Label of the full-detail config a sampled label derives from. */
std::string fullDetailLabel(const std::string &label);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
