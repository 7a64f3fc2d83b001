/**
 * @file
 * Reporting of simulation results: a human-readable listing of a
 * SimResult, side-by-side comparisons of several
 * results over the same workload (for downstream users), and the
 * canonical machine-readable JSON form shared by the experiment
 * engine's run directories and BENCH_*.json artifacts.
 */

#ifndef CGP_HARNESS_REPORT_HH
#define CGP_HARNESS_REPORT_HH

#include <ostream>
#include <vector>

#include "harness/simulator.hh"
#include "util/json.hh"

namespace cgp
{

/** Write a single-run report: one row per field of toJson(result),
 *  nested blocks as dotted keys (`nl.issued`), in toJson's order. */
void writeReport(const SimResult &result, std::ostream &os);

/**
 * Write a comparison table of several runs of the same workload
 * (cycles, IPC, misses, prefetch usefulness), normalized to the
 * first entry.
 */
void writeComparison(const std::vector<SimResult> &results,
                     std::ostream &os);

/// @{ Canonical JSON form of a result.  The mapping is lossless:
/// simResultFromJson(toJson(r)) == r, and the emitted member order
/// is fixed so equal results serialize to identical bytes.
Json toJson(const SimResult &result);
SimResult simResultFromJson(const Json &json);
/// @}

} // namespace cgp

#endif // CGP_HARNESS_REPORT_HH
