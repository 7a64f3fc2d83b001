#include "exp/engine.hh"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>

#include "exp/checkpoint.hh"
#include "exp/rundir.hh"
#include "exp/scheduler.hh"
#include "fault/fault.hh"
#include "util/logging.hh"

namespace cgp::exp
{

Workload
InMemoryProvider::resolve(const std::string &name)
{
    for (const Workload &w : workloads_) {
        if (w.name == name)
            return w;
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<std::string>
CampaignRun::workloadNames() const
{
    std::vector<std::string> out;
    for (const JobSpec &j : jobs) {
        if (std::find(out.begin(), out.end(), j.workload) ==
            out.end())
            out.push_back(j.workload);
    }
    return out;
}

std::vector<std::string>
CampaignRun::configLabels() const
{
    std::vector<std::string> out;
    for (const JobSpec &j : jobs) {
        if (std::find(out.begin(), out.end(), j.label) == out.end())
            out.push_back(j.label);
    }
    return out;
}

const SimResult *
CampaignRun::find(const std::string &workload,
                  const std::string &label) const
{
    for (const JobSpec &j : jobs) {
        if (j.workload != workload || j.label != label)
            continue;
        const bool failed = std::any_of(
            failures.begin(), failures.end(),
            [&j](const JobFailure &f) { return f.index == j.index; });
        return failed ? nullptr : &results[j.index];
    }
    return nullptr;
}

const SimResult &
CampaignRun::at(const std::string &workload,
                const std::string &label) const
{
    const SimResult *r = find(workload, label);
    if (r == nullptr) {
        throw std::out_of_range("no result for " + workload + "|" +
                                label);
    }
    return *r;
}

CampaignRun
runCampaign(const CampaignSpec &spec, WorkloadProvider &provider,
            const EngineOptions &options)
{
    const auto t0 = std::chrono::steady_clock::now();

    CampaignRun run;
    run.name = spec.name;
    run.title = spec.title;
    run.jobs = expandJobs(spec);
    run.fingerprint = fingerprint(spec, run.jobs, provider.identity());
    run.results.resize(run.jobs.size());

    RunDir dir(options.runDir);
    dir.prepare(spec, run.jobs, run.fingerprint);

    // Jobs whose result files survived a previous invocation are
    // loaded, not re-run.
    std::map<std::size_t, SimResult> done;
    if (options.resume)
        done = dir.loadCompleted();
    run.skipped = done.size();
    std::vector<std::size_t> pending;
    for (const JobSpec &j : run.jobs) {
        const auto it = done.find(j.index);
        if (it == done.end())
            pending.push_back(j.index);
        else
            run.results[j.index] = std::move(it->second);
    }

    if (options.verbose && run.skipped > 0) {
        cgp_inform("[", spec.name, "] resume: ", run.skipped,
                   " of ", run.jobs.size(),
                   " jobs already completed");
    }

    // Resolve each distinct workload once, up front, on this thread;
    // jobs share the built instances read-only.
    std::map<std::string, Workload> workloads;
    for (const std::size_t index : pending) {
        const std::string &name = run.jobs[index].workload;
        if (workloads.find(name) == workloads.end())
            workloads.emplace(name, provider.resolve(name));
    }

    std::mutex record_mu;

    const auto runOneJob = [&](std::size_t k) {
        const JobSpec &job = run.jobs[pending[k]];
        if (options.verbose) {
            cgp_inform("[", spec.name, ":", job.index, " ",
                       job.workload, "/", job.label, "] running");
        }

        // Watchdog budgets ride the per-job config copy so the
        // simulation itself enforces them cooperatively.
        SimConfig cfg = job.config;
        if (options.watchdogCycles != 0 &&
            (cfg.core.maxCycles == 0 ||
             cfg.core.maxCycles > options.watchdogCycles)) {
            cfg.core.maxCycles = options.watchdogCycles;
        }
        if (options.watchdogWallSeconds > 0.0)
            cfg.core.maxWallSeconds = options.watchdogWallSeconds;

        // Sampled jobs with a run directory share its sealed
        // checkpoint store, so repeated invocations over the same
        // workload prefix skip functional warming.
        if (cfg.sample.enabled && cfg.sample.useCheckpoints &&
            dir.enabled()) {
            cfg.sample.checkpoints =
                makeSealedCheckpointStore(options.runDir);
        }

        // Injection point: fail this job with a non-timeout error.
        if (fault::hit("exp.job") == fault::FaultKind::TransientIo) {
            throw fault::TransientIoError(
                "injected transient failure in job " +
                std::to_string(job.index));
        }
        SimResult r = runSimulation(workloads.at(job.workload), cfg);
        // Sweeps can distinguish configs describe() cannot
        // (CGHC geometry): the label is the result identity.
        r.config = job.label;

        std::lock_guard<std::mutex> lock(record_mu);
        dir.recordResult(job, r);
        run.results[job.index] = std::move(r);
        ++run.executed;
        if (options.verbose) {
            cgp_inform("[", spec.name, ":", job.index, " ",
                       job.workload, "/", job.label,
                       "] done: cycles=",
                       run.results[job.index].cycles);
        }
    };

    SchedulerOptions sched;
    sched.threads = options.threads;
    sched.policy = options.onFail.value_or(spec.policy);

    // Remap scheduler job indices (positions in `pending`) back to
    // campaign job indices; `pending` ascends, so the order holds.
    const auto remap = [&](std::vector<JobFailure> failures) {
        for (JobFailure &f : failures)
            f.index = run.jobs[pending[f.index]].index;
        return failures;
    };

    ScheduleStats stats;
    try {
        stats = runJobs(pending.size(), sched, runOneJob);
    } catch (const CampaignAborted &e) {
        // Record every failure durably before aborting, then rethrow
        // with campaign job indices so callers see stable identities.
        std::vector<JobFailure> failures = remap(e.failures());
        std::string msg = "campaign '" + spec.name +
            "' aborted (strict policy): " +
            std::to_string(failures.size()) + " job(s) failed";
        for (const JobFailure &f : failures) {
            msg += "\n  job " + std::to_string(f.index) + " [" +
                f.kind + "]: " + f.message;
        }
        dir.recordFailures(failures);
        throw CampaignAborted(msg, std::move(failures));
    }

    run.failures = remap(stats.failures);
    dir.recordFailures(run.failures);
    for (const JobFailure &f : run.failures) {
        if (options.verbose) {
            cgp_warn("[", spec.name, ":", f.index, "] failed (",
                     f.kind, "): ", f.message);
        }
    }

    run.quarantined = dir.quarantined();
    run.threadsUsed = stats.threads;
    run.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    return run;
}

} // namespace cgp::exp
