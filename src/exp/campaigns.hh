/**
 * @file
 * The paper's experiment campaigns as a registry: every figure and
 * ablation of the reproduction, expressed as CampaignSpecs over the
 * shared workload bank, each with the printer for its figure
 * section, so `cgpbench run figures` reproduces the paper through
 * one engine.
 */

#ifndef CGP_EXP_CAMPAIGNS_HH
#define CGP_EXP_CAMPAIGNS_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "exp/campaign.hh"
#include "exp/engine.hh"

namespace cgp::exp
{

/**
 * Lazily builds and caches the paper's workload suites: the four DB
 * workloads (built together, sharing one binary and OM profile), the
 * seven CPU2000 proxies, and two tiny synthetic programs for the
 * smoke campaign.  Build once, share across campaigns — the
 * dominant cost of a figure run is workload construction, not
 * lookup.
 */
class PaperWorkloadBank final : public WorkloadProvider
{
  public:
    /** Builds every workload at WorkloadFactory::scale(), read
     *  once, here. */
    PaperWorkloadBank();

    Workload resolve(const std::string &name) override;

    /** "scale=<the scale>". */
    std::string identity() const override;

  private:
    double scale_;
    std::map<std::string, Workload> cache_;
    bool dbBuilt_ = false;
    bool cpuBuilt_ = false;
};

/** The four DB workload names (§4.1), in paper order. */
const std::vector<std::string> &dbWorkloadNames();

/** The seven CPU2000 proxy names (no traces are built). */
std::vector<std::string> cpu2000WorkloadNames();

/** The two tiny smoke-campaign workload names. */
const std::vector<std::string> &smokeWorkloadNames();

/**
 * Prints a campaign's figure section: the tables and paper
 * references beyond its cycle tables (see exp/figures.hh).
 */
using FigurePrinter = void (*)(const CampaignRun &run,
                               std::ostream &os);

/** One row of the campaign registry. */
struct CampaignEntry
{
    const char *name;
    /** "figures", "ablations", or "" for a campaign that is only
     *  run by name. */
    const char *group;
    CampaignSpec (*make)();
    /** Figure section; nullptr = cycle tables only. */
    FigurePrinter print;
    /** Config label the normalized cycle table divides by;
     *  nullptr = the first config. */
    const char *normalizeTo = nullptr;
};

/** The registry row named @p name; null for an unknown name. */
const CampaignEntry *findCampaign(const std::string &name);

/** Every registered campaign name, in presentation order. */
std::vector<std::string> campaignNames();

/**
 * Look up a campaign spec by name.
 * @throws std::invalid_argument for an unknown name.
 */
CampaignSpec paperCampaign(const std::string &name);

/**
 * Expand a campaign or group name: "figures" (fig4..fig10),
 * "ablations", "all" (both), or a single campaign's name.
 * @throws std::invalid_argument for an unknown name.
 */
std::vector<std::string> campaignGroup(const std::string &name);

} // namespace cgp::exp

#endif // CGP_EXP_CAMPAIGNS_HH
