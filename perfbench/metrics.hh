/**
 * @file
 * Metric assembly: named values with units, and the simulated
 * metrics derived from a workload's results.  Host-time metrics are
 * added by main.cc, which owns the clocks.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <string>
#include <vector>

#include "exp/campaign.hh"
#include "harness/simulator.hh"
#include "traced.hh"
#include "util/json.hh"

namespace perfbench
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Metrics
{
  public:
    void add(std::string name, double value, std::string unit);

    const std::vector<Metric> &all() const { return metrics_; }

    /** {"<name>": {"value": v, "unit": "u"}, ...} */
    cgp::Json json() const;

  private:
    std::vector<Metric> metrics_;
};

/** One job of a workload with its result; extras are filled only by
 *  the traced run. */
struct JobOutcome
{
    cgp::exp::JobSpec job;
    cgp::SimResult result;
    MachineExtras extras;
    std::string error; ///< why the job failed to run (empty: it ran)
    double seconds = 0.0; ///< host time of the run
    /** seconds rescaled to the reference kernel's nominal speed
     *  (calib.hh); untraced runs only. */
    double refSeconds = 0.0;
};

/** The O5+OM+CGP_4 jobs every workload's simulated metrics use. */
bool isPrimary(const cgp::SimConfig &config);

/**
 * Workload-level simulated outcomes: cpi_cgp, cgp_over_nl,
 * cgp_over_perfect, the server's query latency and throughput,
 * sampled_cpi_err (against @p reference) and trace.instrs_per_call.
 * A metric that does not apply to the workload reads 0.
 */
void addOutcomeMetrics(Metrics &m, const std::vector<JobOutcome> &timed,
                       const std::vector<JobOutcome> &reference);

/** Per-layer simulated metrics over the primary jobs of @p traced. */
void addLayerMetrics(Metrics &m, const std::vector<JobOutcome> &traced);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
