#include "exp/artifact.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exp/integrity.hh"
#include "fault/fault.hh"
#include "harness/report.hh"
#include "util/table.hh"

namespace cgp::exp
{

namespace
{

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0
        ? 0.0
        : static_cast<double>(num) / static_cast<double>(den);
}

} // anonymous namespace

Json
benchJson(const CampaignRun &run)
{
    Json j = Json::object();
    j.set("schema", 3);
    j.set("bench", run.name);
    j.set("title", run.title);
    j.set("fingerprint", run.fingerprint);

    Json exec = Json::object();
    exec.set("jobs", run.jobs.size());
    exec.set("executed", run.executed);
    exec.set("skipped", run.skipped);
    exec.set("threads", run.threadsUsed);
    exec.set("wall_seconds", run.wallSeconds);
    exec.set("quarantined", run.quarantined);
    j.set("execution", std::move(exec));

    // Always present so downstream tooling can key on it; empty on a
    // fully healthy campaign.
    Json failures = Json::array();
    for (const JobFailure &f : run.failures) {
        Json e = Json::object();
        e.set("index", f.index);
        e.set("workload", run.jobs[f.index].workload);
        e.set("config", run.jobs[f.index].label);
        e.set("kind", f.kind);
        e.set("message", f.message);
        failures.push(std::move(e));
    }
    j.set("failures", std::move(failures));

    Json jobs = Json::array();
    for (const JobSpec &job : run.jobs) {
        Json e = Json::object();
        e.set("index", job.index);
        e.set("workload", job.workload);
        e.set("config", job.label);

        const bool failed = std::any_of(
            run.failures.begin(), run.failures.end(),
            [&](const JobFailure &f) {
                return f.index == job.index;
            });
        if (failed) {
            // A failed job has no result; its default-constructed
            // SimResult would read as "everything was zero cycles".
            e.set("status", "failed");
            jobs.push(std::move(e));
            continue;
        }
        e.set("status", "ok");
        const SimResult &r = run.results[job.index];
        e.set("result", toJson(r));

        // Derived metrics, precomputed for plotting pipelines.
        Json d = Json::object();
        d.set("ipc", r.ipc());
        d.set("cpi", r.instrs == 0
                  ? 0.0
                  : static_cast<double>(r.cycles) /
                      static_cast<double>(r.instrs));
        d.set("icache_miss_rate",
              ratio(r.icacheMisses, r.icacheAccesses));
        d.set("dcache_miss_rate",
              ratio(r.dcacheMisses, r.instrs));
        d.set("l2_miss_rate", ratio(r.l2Misses, r.instrs));
        const PrefetchBreakdown total = r.totalPrefetch();
        d.set("prefetch_useful_fraction", total.usefulFraction());
        e.set("derived", std::move(d));
        jobs.push(std::move(e));
    }
    j.set("jobs", std::move(jobs));
    return j;
}

void
writeBenchJson(const std::string &path, const CampaignRun &run)
{
    // Crash here = the campaign completed but the report did not; a
    // resume re-reads the run dir and rewrites the BENCH cheaply.
    fault::hit("exp.pre_bench");
    writeFileAtomicDurable(path, sealedJsonText(benchJson(run)));
}

void
printCycleTables(const CampaignRun &run, std::ostream &os,
                 std::size_t normIndex)
{
    const std::vector<std::string> workloads = run.workloadNames();
    const std::vector<std::string> labels = run.configLabels();
    if (workloads.empty() || labels.empty())
        return;
    if (normIndex >= labels.size())
        normIndex = 0;

    TablePrinter abs(run.title + " — execution cycles");
    TablePrinter norm(run.title + " — normalized to " +
                      labels[normIndex] + " (lower is faster)");
    std::vector<std::string> header{"workload"};
    header.insert(header.end(), labels.begin(), labels.end());
    abs.setHeader(header);
    norm.setHeader(header);

    // Failed jobs (degrade policy) have no result; their cells show
    // "-" instead of a bogus zero.
    for (const std::string &w : workloads) {
        std::vector<std::string> arow{w};
        std::vector<std::string> nrow{w};
        const SimResult *baseRes =
            run.find(w, labels[normIndex]);
        const double base = baseRes == nullptr
            ? 0.0
            : static_cast<double>(baseRes->cycles);
        for (const std::string &l : labels) {
            const SimResult *r = run.find(w, l);
            if (r == nullptr) {
                arow.push_back("-");
                nrow.push_back("-");
                continue;
            }
            arow.push_back(TablePrinter::num(r->cycles));
            nrow.push_back(base == 0.0
                               ? std::string("-")
                               : TablePrinter::fixed(
                                     static_cast<double>(r->cycles) /
                                         base,
                                     3));
        }
        abs.addRow(arow);
        norm.addRow(nrow);
    }
    abs.print(os);
    os << "\n";
    norm.print(os);
}

double
geomeanSpeedup(const CampaignRun &run, const std::string &labelA,
               const std::string &labelB)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (const std::string &w : run.workloadNames()) {
        const double ca =
            static_cast<double>(run.at(w, labelA).cycles);
        const double cb =
            static_cast<double>(run.at(w, labelB).cycles);
        log_sum += std::log(ca / cb);
        ++n;
    }
    return n == 0 ? 1.0
                  : std::exp(log_sum / static_cast<double>(n));
}

} // namespace cgp::exp
