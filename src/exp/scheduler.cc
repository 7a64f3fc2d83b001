#include "exp/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/fault.hh"
#include "util/watchdog.hh"

namespace cgp::exp
{

namespace
{

const char *
classifyKind(const std::exception &e)
{
    if (dynamic_cast<const TimeoutError *>(&e) != nullptr)
        return "timeout";
    if (dynamic_cast<const fault::TransientIoError *>(&e) != nullptr)
        return "transient-io";
    return "error";
}

} // anonymous namespace

const char *
toString(FailurePolicy policy)
{
    return policy == FailurePolicy::Strict ? "strict" : "degrade";
}

FailurePolicy
failurePolicyFromString(const std::string &s)
{
    if (s == "strict")
        return FailurePolicy::Strict;
    if (s == "degrade")
        return FailurePolicy::Degrade;
    throw std::invalid_argument("unknown failure policy '" + s +
                                "' (want strict|degrade)");
}

ScheduleStats
runJobs(std::size_t n, const SchedulerOptions &options,
        const std::function<void(std::size_t)> &fn)
{
    ScheduleStats stats;
    if (n == 0)
        return stats;

    unsigned workers = options.threads != 0
        ? options.threads
        : std::max(1u, std::thread::hardware_concurrency());
    if (static_cast<std::size_t>(workers) > n)
        workers = static_cast<unsigned>(n);
    stats.threads = workers;

    std::atomic<std::size_t> next{0};
    std::atomic<bool> cancelled{false};
    std::mutex fail_mu;
    std::vector<JobFailure> failures;
    std::exception_ptr crash;

    const auto fail = [&](std::size_t j, const char *kind,
                          const std::string &message) {
        {
            std::lock_guard<std::mutex> lock(fail_mu);
            failures.push_back({j, kind, message});
        }
        if (options.policy == FailurePolicy::Strict)
            cancelled.store(true, std::memory_order_relaxed);
    };

    const auto runOne = [&](std::size_t j) {
        try {
            fn(j);
        } catch (const fault::CrashInjected &) {
            // Simulated process death: both policies stop the world
            // and rethrow with the type intact (the chaos harness
            // catches CrashInjected specifically).
            {
                std::lock_guard<std::mutex> lock(fail_mu);
                if (!crash)
                    crash = std::current_exception();
            }
            cancelled.store(true, std::memory_order_relaxed);
        } catch (const std::exception &e) {
            fail(j, classifyKind(e), e.what());
        } catch (...) {
            fail(j, "error", "unknown exception");
        }
    };

    const auto workerLoop = [&] {
        while (!cancelled.load(std::memory_order_relaxed)) {
            const std::size_t j =
                next.fetch_add(1, std::memory_order_relaxed);
            if (j >= n)
                return;
            runOne(j);
        }
    };

    if (workers <= 1) {
        workerLoop();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(workerLoop);
        for (std::thread &t : pool)
            t.join();
    }

    std::sort(failures.begin(), failures.end(),
              [](const JobFailure &a, const JobFailure &b) {
                  return a.index < b.index;
              });
    stats.failures = failures;
    // Every index the counter handed out below n was started.
    stats.cancelledJobs = n - std::min(next.load(), n);

    if (crash)
        std::rethrow_exception(crash);
    if (options.policy == FailurePolicy::Strict &&
        !failures.empty()) {
        std::string msg = "campaign aborted (strict policy): " +
            std::to_string(failures.size()) + " job(s) failed";
        for (const JobFailure &f : failures) {
            msg += "\n  job " + std::to_string(f.index) + " [" +
                f.kind + "]: " + f.message;
        }
        throw CampaignAborted(msg, std::move(failures));
    }
    return stats;
}

} // namespace cgp::exp
