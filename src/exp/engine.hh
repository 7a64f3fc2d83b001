/**
 * @file
 * The campaign engine: expand a CampaignSpec into jobs, resolve the
 * workloads once, run the pending jobs on the worker pool,
 * and persist every completion into the run directory.
 *
 * Determinism contract: results are keyed by job index, every
 * simulation is a pure function of (workload, config), and the run
 * directory stores no timing — so the same spec produces
 * byte-identical manifests and job files at any thread count, and a
 * resumed campaign continues exactly where the crash left it,
 * skipping every job whose result file survived.
 */

#ifndef CGP_EXP_ENGINE_HH
#define CGP_EXP_ENGINE_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exp/campaign.hh"
#include "exp/scheduler.hh"
#include "harness/simulator.hh"
#include "harness/workload.hh"

namespace cgp::exp
{

/**
 * Resolves workload names to built workloads.  resolve() is called
 * once per distinct name, from the coordinating thread, before any
 * job runs; the returned Workload's shared parts (registry, trace,
 * profile) are only read during simulation, so one instance may be
 * shared by many concurrent jobs.
 */
class WorkloadProvider
{
  public:
    virtual ~WorkloadProvider() = default;

    /** @throws std::invalid_argument for an unknown name. */
    virtual Workload resolve(const std::string &name) = 0;

    /** What decides the workloads besides their names (the paper
     *  bank's scale), mixed into the run's fingerprint so a run
     *  directory is never resumed over other workloads; empty when
     *  the names say it all. */
    virtual std::string identity() const { return {}; }
};

/** Provider over a fixed list of already-built workloads. */
class InMemoryProvider : public WorkloadProvider
{
  public:
    explicit InMemoryProvider(std::vector<Workload> workloads)
        : workloads_(std::move(workloads))
    {
    }

    Workload resolve(const std::string &name) override;

  private:
    std::vector<Workload> workloads_;
};

struct EngineOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned threads = 0;

    /** Run directory; empty = in-memory only (no resume). */
    std::string runDir;

    /** Skip jobs already completed in runDir. */
    bool resume = true;

    /** Per-job progress through util/logging (cgp_inform). */
    bool verbose = true;

    /** Override the spec's failure policy (CLI --on-fail). */
    std::optional<FailurePolicy> onFail;

    /** Deterministic per-job cycle budget (0 = none); a job that
     *  exceeds it fails as a "timeout". */
    std::uint64_t watchdogCycles = 0;

    /** Per-job wall-clock budget in seconds (0 = none); a job that
     *  exceeds it fails as a "timeout". */
    double watchdogWallSeconds = 0.0;
};

/** A finished (or resumed-and-finished) campaign. */
struct CampaignRun
{
    std::string name;
    std::string title;
    std::string fingerprint;

    std::vector<JobSpec> jobs;      ///< expansion order
    std::vector<SimResult> results; ///< by job index

    std::size_t executed = 0; ///< simulated in this invocation
    std::size_t skipped = 0;  ///< loaded from the run directory
    unsigned threadsUsed = 1;
    double wallSeconds = 0.0; ///< this invocation only

    /** Jobs that terminally failed (Degrade policy), by campaign
     *  job index, in index order. */
    std::vector<JobFailure> failures;

    /** Corrupt artifacts quarantined while opening/resuming. */
    std::size_t quarantined = 0;

    /** Distinct workload names in first-appearance order. */
    std::vector<std::string> workloadNames() const;

    /** Distinct config labels in first-appearance order. */
    std::vector<std::string> configLabels() const;

    /** Result for (workload, label); null if absent or failed. */
    const SimResult *find(const std::string &workload,
                          const std::string &label) const;

    /** find() or throw std::out_of_range. */
    const SimResult &at(const std::string &workload,
                        const std::string &label) const;
};

/**
 * Run @p spec to completion.  Under the Strict policy (the default)
 * job failures abort the campaign via CampaignAborted after the pool
 * joins, every failure aggregated; under Degrade they are recorded
 * in CampaignRun::failures (and the run directory's manifest) and
 * every healthy job still completes.  Injected crashes
 * (fault::CrashInjected) always propagate type-intact; completed
 * jobs stay recorded in the run directory, so rerunning the same
 * call resumes.
 */
CampaignRun runCampaign(const CampaignSpec &spec,
                        WorkloadProvider &provider,
                        const EngineOptions &options = {});

} // namespace cgp::exp

#endif // CGP_EXP_ENGINE_HH
