/**
 * @file
 * Campaign printers: the paper-style text of a finished campaign.
 *
 * printCampaign() is the one printer `cgpbench run`, `resume` and
 * `report` share.  It prints the cycle tables every campaign has,
 * then the figure section of the campaign's registry row (the
 * per-figure functions below), then one generic table pair for
 * server jobs and one for sampled jobs, then the failed jobs.
 *
 * The three show* pages run no campaign; they back
 * `cgpbench show table1|callgraph|anatomy`.
 */

#ifndef CGP_EXP_FIGURES_HH
#define CGP_EXP_FIGURES_HH

#include <ostream>

#include "exp/engine.hh"

namespace cgp::exp
{

/**
 * Print @p run: cycle tables, figure section, server and sampled
 * tables (when the run has such jobs) and failed jobs.  A run with
 * failed jobs skips its figure section, whose ratios need every
 * job's result.
 */
void printCampaign(const CampaignRun &run, std::ostream &os);

/** The failed-jobs table; prints nothing for a healthy run. */
void printFailures(const CampaignRun &run, std::ostream &os);

/** @name Figure sections, one per registry row with a printer. */
/** @{ */
void printFig4(const CampaignRun &run, std::ostream &os);
void printFig5(const CampaignRun &run, std::ostream &os);
void printFig6(const CampaignRun &run, std::ostream &os);
void printFig10(const CampaignRun &run, std::ostream &os);
void printFigD(const CampaignRun &run, std::ostream &os);
void printFigID(const CampaignRun &run, std::ostream &os);
void printServerScale(const CampaignRun &run, std::ostream &os);
void printFigSampled(const CampaignRun &run, std::ostream &os);
void printAblationRanl(const CampaignRun &run, std::ostream &os);
void printAblationSwCgp(const CampaignRun &run, std::ostream &os);
void printAblationAssoc(const CampaignRun &run, std::ostream &os);
/** @} */

/** Table 1, from the live default configuration objects. */
void showTable1(std::ostream &os);

/** §3.2 call-graph statistics over the DB and CPU2000 profiles. */
void showCallGraph(std::ostream &os);

/** Workload anatomy: trace sizes, code footprint, CGHC behaviour. */
void showAnatomy(std::ostream &os);

} // namespace cgp::exp

#endif // CGP_EXP_FIGURES_HH
