#include "fault/fault.hh"

#include <algorithm>
#include <mutex>

#include "util/logging.hh"

namespace cgp::fault
{

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Crash:
        return "crash";
      case FaultKind::TornWrite:
        return "torn-write";
      case FaultKind::TransientIo:
        return "transient-io";
    }
    return "unknown";
}

const std::vector<std::string> &
FaultInjector::crashPoints()
{
    static const std::vector<std::string> points = {
        "prefetch.issue", ///< prefetcher line-issue path
        "prefetch.train", ///< prefetcher call/return trace observation
        "exp.pre_record", ///< campaign engine, before a job result is
                          ///< persisted (the job is lost on crash)
        "exp.record",     ///< campaign engine, after a job result is
                          ///< durable (the job survives)
        "exp.job",            ///< inside a campaign job, before the
                              ///< simulation runs (degrade path)
        "exp.artifact_write", ///< inside the durable atomic write
                              ///< (TornWrite tears the artifact)
        "exp.pre_bench",      ///< before the BENCH_*.json is written
    };
    return points;
}

bool
FaultInjector::isRegistered(std::string_view point)
{
    const auto &points = crashPoints();
    return std::find(points.begin(), points.end(), point) !=
        points.end();
}

void
FaultInjector::arm(std::string_view point, const FaultSpec &spec)
{
    cgp_assert(isRegistered(point),
               "arming unregistered crash point ", point);
    cgp_assert(spec.count > 0, "armed fault must fire at least once");
    std::lock_guard<std::mutex> lock(mu_);
    armed_[std::string(point)] = Armed{spec, 0};
}

void
FaultInjector::disarmAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    armed_.clear();
}

std::optional<FaultKind>
FaultInjector::hit(std::string_view point)
{
    std::uint64_t n;
    FaultKind kind;
    {
        std::lock_guard<std::mutex> lock(mu_);
        n = ++hits_[std::string(point)];

        auto it = armed_.find(std::string(point));
        if (it == armed_.end())
            return std::nullopt;

        Armed &a = it->second;
        if (n <= a.spec.afterHits || a.firedCount >= a.spec.count)
            return std::nullopt;

        ++a.firedCount;
        kind = a.spec.kind;
        fired_.push_back(FaultEvent{std::string(point), kind, n});
    }
    cgp_warn("fault injected: ", point, " kind=", toString(kind),
             " hit#", n);
    if (kind == FaultKind::Crash)
        throw CrashInjected(std::string(point));
    return kind;
}

std::uint64_t
FaultInjector::hitCount(std::string_view point) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = hits_.find(std::string(point));
    return it == hits_.end() ? 0 : it->second;
}

namespace
{

FaultInjector *globalInjector = nullptr;

} // anonymous namespace

FaultInjector *
global()
{
    return globalInjector;
}

void
setGlobal(FaultInjector *injector)
{
    globalInjector = injector;
}

} // namespace cgp::fault
