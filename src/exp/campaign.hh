/**
 * @file
 * Declarative experiment campaigns.
 *
 * A CampaignSpec turns an ad-hoc (workload x config) loop into
 * data: a list of workload names, a base
 * SimConfig, and named *axes* whose labeled points mutate the base
 * config.  Axes combine cartesian: every combination, first axis
 * slowest-varying.
 * Expansion yields a flat, stable job list — workload-major, config
 * order as swept — so a campaign's job list is a pure function of
 * its spec regardless of how many threads later execute it.
 */

#ifndef CGP_EXP_CAMPAIGN_HH
#define CGP_EXP_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/scheduler.hh"
#include "harness/simconfig.hh"

namespace cgp::exp
{

/** One labeled point on an axis: a named mutation of a SimConfig. */
struct AxisPoint
{
    /**
     * Display label.  Labels of the chosen points are joined with
     * '+' to form the job's config label; when every chosen label is
     * empty the label falls back to SimConfig::describe() — which is
     * ambiguous for sweeps the describe() string does not cover
     * (e.g. CGHC geometry), hence explicit labels.
     */
    std::string label;
    std::function<void(SimConfig &)> apply;
};

/** A named sweep dimension. */
struct ConfigAxis
{
    std::string name;
    std::vector<AxisPoint> points;
};

/** A config produced by expansion, with its display label. */
struct ExpandedConfig
{
    SimConfig config;
    std::string label;
};

struct CampaignSpec
{
    /** Key for run directories and BENCH_<name>.json artifacts. */
    std::string name;

    /** Human-readable heading for tables and reports. */
    std::string title;

    /** Workload names, resolved by a WorkloadProvider at run time. */
    std::vector<std::string> workloads;

    /** Start point every axis point mutates. */
    SimConfig base;

    /** Sweep dimensions, combined cartesian (first axis varies
     *  slowest); empty means use explicitConfigs. */
    std::vector<ConfigAxis> axes;

    /** Alternative to axes: configs listed out by hand. */
    std::vector<SimConfig> explicitConfigs;

    /** Labels for explicitConfigs (optional; describe() otherwise). */
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
 * Expand the config dimension of a spec.
 * @throws std::invalid_argument on an ill-formed spec (no configs,
 * an axis with no points, explicit labels of the wrong count).
 */
std::vector<ExpandedConfig> expandConfigs(const CampaignSpec &spec);

/** Expand the full job list, workload-major. */
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
