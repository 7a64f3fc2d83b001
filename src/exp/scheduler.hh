/**
 * @file
 * Job scheduler for independent experiment jobs.
 *
 * runJobs() executes fn(0..n-1) on a pool of worker threads.  The
 * workers share one job counter: each takes the next unstarted index
 * until none is left, so no worker idles while a job is unstarted
 * and long-running jobs (the big DB workloads) do not strand short
 * ones behind them.  Completion *order* is therefore
 * nondeterministic — callers must key results by job index, never by
 * completion sequence; the campaign engine writes into a
 * pre-allocated results vector for exactly this reason.
 *
 * Failure handling is governed by a policy:
 *
 *  - Strict: the first job failure cancels all not-yet-started jobs;
 *    after the pool joins, every failure that occurred (in-flight
 *    jobs on other workers may fail concurrently) is aggregated —
 *    nothing is silently dropped — and runJobs throws
 *    CampaignAborted listing all of them.
 *  - Degrade: failed jobs are recorded in ScheduleStats::failures
 *    (job index, classified kind, message) and every healthy job
 *    still runs to completion.
 *
 * Two exceptions bypass the policy: fault::CrashInjected models
 * whole-process death (the chaos harness depends on it unwinding the
 * entire campaign), so it always cancels everything and is rethrown
 * with its type intact.  Everything else is classified: TimeoutError
 * (a job over its cycle or wall-clock budget, util/watchdog) ->
 * "timeout", fault::TransientIoError -> "transient-io", any other
 * exception -> "error".
 */

#ifndef CGP_EXP_SCHEDULER_HH
#define CGP_EXP_SCHEDULER_HH

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace cgp::exp
{

/** What the campaign does when a job fails. */
enum class FailurePolicy
{
    Strict, ///< abort the campaign on the first failure
    Degrade ///< record the failure, finish every healthy job
};

const char *toString(FailurePolicy policy);

/**
 * Parse "strict"/"degrade".
 * @throws std::invalid_argument on anything else.
 */
FailurePolicy failurePolicyFromString(const std::string &s);

/** One job that failed. */
struct JobFailure
{
    std::size_t index = 0; ///< scheduler job index
    std::string kind;      ///< "timeout" | "transient-io" | "error"
    std::string message;   ///< the exception's what()
};

/** Thrown by runJobs under Strict when any job failed. */
class CampaignAborted : public std::runtime_error
{
  public:
    CampaignAborted(const std::string &what,
                    std::vector<JobFailure> failures)
        : std::runtime_error(what), failures_(std::move(failures))
    {
    }

    /** Every failure observed before the pool stopped. */
    const std::vector<JobFailure> &failures() const
    {
        return failures_;
    }

  private:
    std::vector<JobFailure> failures_;
};

struct SchedulerOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned threads = 0;

    FailurePolicy policy = FailurePolicy::Strict;
};

struct ScheduleStats
{
    unsigned threads = 1; ///< workers actually spawned

    /** Failures in job-index order (Degrade; also carried by the
     *  CampaignAborted thrown under Strict). */
    std::vector<JobFailure> failures;

    /** Jobs never started because a strict failure (or crash)
     *  cancelled the pool. */
    std::size_t cancelledJobs = 0;
};

/**
 * Run @p fn for every index in [0, n) under @p options.  With one
 * worker (or n <= 1) jobs run inline on the calling thread in index
 * order.
 * @throws CampaignAborted under Strict when any job failed.
 * @throws fault::CrashInjected (rethrown, both policies) when a job
 * died at an injected crash point — the in-process stand-in for
 * SIGKILL.
 */
ScheduleStats runJobs(std::size_t n, const SchedulerOptions &options,
                      const std::function<void(std::size_t)> &fn);

} // namespace cgp::exp

#endif // CGP_EXP_SCHEDULER_HH
