/**
 * @file
 * Declarative experiment campaigns.
 *
 * A CampaignSpec turns an ad-hoc (workload x config) loop into
 * data: a list of workload names and one labeled list of SimConfigs.
 * A sweep is a plain loop that fills the list.  Expansion yields a
 * flat, stable job list — workload-major, configs in list order — so
 * a campaign's job list is a pure function of its spec regardless of
 * how many threads later execute it.
 */

#ifndef CGP_EXP_CAMPAIGN_HH
#define CGP_EXP_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/scheduler.hh"
#include "harness/simconfig.hh"

namespace cgp::exp
{

struct CampaignSpec
{
    /** Key for run directories and BENCH_<name>.json artifacts. */
    std::string name;

    /** Human-readable heading for tables and reports. */
    std::string title;

    /** Workload names, resolved by a WorkloadProvider at run time. */
    std::vector<std::string> workloads;

    /** The configs every workload runs, in order. */
    std::vector<SimConfig> explicitConfigs;

    /**
     * Labels for explicitConfigs, one each, or none.  A missing or
     * empty label is SimConfig::describe(), which is ambiguous for
     * sweeps the describe() string does not cover (e.g. CGHC
     * geometry), hence explicit labels.
     */
    std::vector<std::string> explicitLabels;

    /**
     * What a job failure does to the rest of the campaign.  Not part
     * of the fingerprint: the job list is identical either way, so a
     * run directory can be resumed under a different policy.
     */
    FailurePolicy policy = FailurePolicy::Strict;
};

/** One schedulable unit: a single runSimulation() point. */
struct JobSpec
{
    std::size_t index = 0; ///< position in expansion order
    std::string workload;
    SimConfig config;
    std::string label; ///< config label (result's `config` field)

    /** Identity within a campaign (resume matching, matrices). */
    std::string
    key() const
    {
        return workload + "|" + label;
    }
};

/**
 * Expand the full job list, workload-major, configs in list order.
 * @throws std::invalid_argument on an ill-formed spec (no workloads,
 * no configs, explicit labels of the wrong count).
 */
std::vector<JobSpec> expandJobs(const CampaignSpec &spec);

/**
 * Spec fingerprint over the expanded job identities and the
 * workloads' @p identity (WorkloadProvider::identity(); not mixed in
 * when empty), 16 hex chars.  Two specs that expand to the same jobs
 * over the same workloads are interchangeable for resume purposes;
 * anything else must not share a run directory.
 */
std::string fingerprint(const CampaignSpec &spec,
                        const std::vector<JobSpec> &jobs,
                        std::string_view identity = {});

} // namespace cgp::exp

#endif // CGP_EXP_CAMPAIGN_HH
