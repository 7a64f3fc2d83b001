/**
 * @file
 * Artifact layer: machine-readable BENCH_*.json files and the
 * paper-style cycle tables, both derived from a CampaignRun.
 *
 * The BENCH json carries the canonical SimResult serialization plus
 * derived metrics (CPI, miss rates, prefetch usefulness) and this
 * invocation's execution stats (threads, wall time, executed vs
 * skipped) — a perf trajectory a CI run can track over time.  Unlike
 * the run directory, it is a report, not a resume source, so timing
 * belongs here.
 */

#ifndef CGP_EXP_ARTIFACT_HH
#define CGP_EXP_ARTIFACT_HH

#include <ostream>
#include <string>

#include "exp/engine.hh"
#include "util/json.hh"

namespace cgp::exp
{

/** Full machine-readable form of a finished campaign, unsealed. */
Json benchJson(const CampaignRun &run);

/** Write benchJson() to @p path, sealed (exp/integrity). */
void writeBenchJson(const std::string &path,
                    const CampaignRun &run);

/**
 * Print the campaign's absolute-cycles table and the normalized view
 * (config @p normIndex = 1.00, smaller is faster) the paper's bar
 * charts use.
 */
void printCycleTables(const CampaignRun &run, std::ostream &os,
                      std::size_t normIndex = 0);

/**
 * Geometric-mean speedup of config @p labelB over @p labelA across
 * the campaign's workloads.
 */
double geomeanSpeedup(const CampaignRun &run,
                      const std::string &labelA,
                      const std::string &labelB);

} // namespace cgp::exp

#endif // CGP_EXP_ARTIFACT_HH
