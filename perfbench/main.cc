/**
 * @file
 * perfbench: the repository's benchmark program.
 *
 *   perfbench --workload <db-fig6|server-prof|sampled-tpch>
 *             [--seed N] [--seconds S] [--trace 0|1]
 *             [--work-dir DIR] [--scale X] [--forge-violation]
 *
 * Untraced (--trace 0): makes up to --seconds over the workload's
 * nominal pass time passes, starting none once --seconds have gone by.
 * Each pass builds the DB workload set once more and then runs the
 * workload's jobs, each through exp::runCampaign on one thread.  Every
 * build and job is timed between two runs of a reference kernel
 * (calib.hh) and rescaled to the kernel's nominal speed; setup_s is the
 * median rescaled build and a job's rescaled time its median over the
 * passes (ref_wall_s, sim_minst_per_ref_s).  wall_s and sim_minst_per_s
 * keep the raw host seconds of each job's fastest pass.  Traced
 * (--trace 1): one untraced pass, then the same jobs on machines
 * wrapped in timing decorators (traced.hh); the per-layer numbers come
 * from that pass.  Both modes run the
 * correctness gate (gate.hh) and print every metric they computed,
 * then one JSON line: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>

#include "calib.hh"
#include "exp/engine.hh"
#include "gate.hh"
#include "harness/workload.hh"
#include "metrics.hh"
#include "traced.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace cgp;
using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::string workDir = ".bench_build/work";
    double scale = benchScale;
    bool forgeViolation = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::stoull(value());
        else if (arg == "--seconds")
            o.seconds = std::stod(value());
        else if (arg == "--trace")
            o.trace = std::stoi(value()) != 0;
        else if (arg == "--work-dir")
            o.workDir = value();
        else if (arg == "--scale")
            o.scale = std::stod(value());
        else if (arg == "--forge-violation")
            o.forgeViolation = true;
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    if (o.workload.empty())
        throw std::invalid_argument("--workload is required");
    return o;
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Bytes in the regular files directly under @p dir. */
std::uint64_t
bytesIn(const fs::path &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec)) {
        if (e.is_regular_file())
            total += e.file_size();
    }
    return total;
}

/** One untraced pass over a workload's job lists. */
struct Pass
{
    std::vector<JobOutcome> timed;
    std::vector<JobOutcome> reference;
    std::uint64_t checkpointBytes = 0;
    std::uint64_t artifactBytes = 0;
};

/** The reference kernel's runs (calib.hh) over one benchmark run. */
struct Calibration
{
    std::vector<double> seconds; ///< every sample() so far
    std::uint64_t sink = 0;

    /** The kernel's seconds now: the faster of two runs, so a run cut
     *  by one preemption does not count. */
    double
    sample()
    {
        seconds.push_back(std::min(calibrateOnce(sink), calibrateOnce(sink)));
        return seconds.back();
    }
};

/** @p seconds rescaled to the reference kernel's nominal speed, from
 *  the kernel's seconds just before and just after them. */
double
atReferenceSpeed(double seconds, double calibBefore, double calibAfter)
{
    return seconds * calibNominalSeconds /
        (0.5 * (calibBefore + calibAfter));
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Run every job of @p spec as its own one-job campaign, so each job
 * gets its own host time.  The reference kernel runs before the first
 * job and after each one; a job's refSeconds scale its seconds by the
 * kernel's nominal time over the mean of the two runs around it.  With
 * a @p runDir each job goes through a fresh run directory whose
 * checkpoint and artifact bytes are added to @p p.
 */
std::vector<JobOutcome>
runJobs(const exp::CampaignSpec &spec, exp::WorkloadProvider &provider,
        const fs::path &runDir, Calibration &calib, Pass &p)
{
    exp::EngineOptions opts;
    opts.threads = 1;
    opts.verbose = false;
    opts.resume = false;
    opts.runDir = runDir.string();

    std::vector<JobOutcome> out;
    double calibBefore = calib.sample();
    for (const exp::JobSpec &j : exp::expandJobs(spec)) {
        exp::CampaignSpec one = spec;
        one.workloads = {j.workload};
        one.explicitConfigs = {j.config};
        one.explicitLabels = {j.label};
        fs::remove_all(runDir);

        const auto t0 = Clock::now();
        const exp::CampaignRun run = exp::runCampaign(one, provider, opts);
        JobOutcome o{j, run.results.front(), {}, {}, since(t0)};
        const double calibAfter = calib.sample();
        o.refSeconds = atReferenceSpeed(o.seconds, calibBefore, calibAfter);
        calibBefore = calibAfter;
        if (!run.failures.empty()) {
            o.error = run.failures.front().kind + ": " +
                run.failures.front().message;
        }
        if (!runDir.empty()) {
            p.checkpointBytes += bytesIn(runDir / "checkpoints");
            p.artifactBytes += bytesIn(runDir);
            fs::remove_all(runDir);
        }
        out.push_back(std::move(o));
    }
    return out;
}

Pass
runPass(const BenchWorkload &bw, exp::WorkloadProvider &provider,
        const fs::path &runDir, Calibration &calib)
{
    Pass p;
    p.timed = runJobs(bw.timed, provider,
                      bw.useRunDir ? runDir : fs::path(), calib, p);
    if (bw.reference)
        p.reference = runJobs(*bw.reference, provider, {}, calib, p);
    return p;
}

/** Σ over jobs of each job's fastest pass, in host seconds. */
double
fastestJobSeconds(const std::vector<Pass> &passes,
                  std::vector<JobOutcome> Pass::*list)
{
    double total = 0.0;
    for (std::size_t i = 0; i < (passes.front().*list).size(); ++i) {
        double best = (passes.front().*list)[i].seconds;
        for (const Pass &p : passes)
            best = std::min(best, (p.*list)[i].seconds);
        total += best;
    }
    return total;
}

/**
 * Σ over jobs of each job's median refSeconds over the passes.  The
 * host's speed moves within a pass too, so the rescaled times still
 * scatter a little; the median drops the passes where the kernel and
 * the job saw different speeds.
 */
double
medianRefSeconds(const std::vector<Pass> &passes,
                 std::vector<JobOutcome> Pass::*list)
{
    double total = 0.0;
    for (std::size_t i = 0; i < (passes.front().*list).size(); ++i) {
        std::vector<double> v;
        for (const Pass &p : passes)
            v.push_back((p.*list)[i].refSeconds);
        total += median(std::move(v));
    }
    return total;
}

double
seconds(const std::vector<JobOutcome> &jobs)
{
    double total = 0.0;
    for (const JobOutcome &o : jobs)
        total += o.seconds;
    return total;
}

/** Drains keyed by the trace and binding a job expands. */
std::string
drainKey(const exp::JobSpec &j)
{
    return j.workload + "|" + layoutName(j.config.layout) + "|" +
        std::to_string(j.config.omInstrScale);
}

class Bench
{
  public:
    explicit Bench(Options o)
        : opt_(std::move(o)), bw_(makeWorkload(opt_.workload, opt_.seed)),
          runDir_(fs::path(opt_.workDir) /
                  ("run-" + std::to_string(::getpid())))
    {
        fs::create_directories(opt_.workDir);
    }

    int run();

  private:
    /** Build the DB workload set (replacing any earlier one) and time
     *  the build. */
    void setup();
    void untraced();
    void traced();

    /** Gate the first pass's jobs: identities and the instruction
     *  count against an expander drain.  Returns the drains. */
    std::map<std::string, Drain> gateFirstPass(const Pass &p);

    const Workload &workload(const std::string &name) const;

    void print() const;

    Options opt_;
    BenchWorkload bw_;
    fs::path runDir_;
    std::optional<DbWorkloadSet> set_;
    std::optional<exp::InMemoryProvider> provider_;
    /** Each set-up's seconds at the reference kernel's speed. */
    std::vector<double> buildRefSeconds_;
    Calibration calib_;
    Tracer tracer_;
    Gate gate_;
    Metrics metrics_;
};

const Workload &
Bench::workload(const std::string &name) const
{
    for (const Workload &w : set_->workloads) {
        if (w.name == name)
            return w;
    }
    throw std::invalid_argument("unknown workload " + name);
}

void
Bench::setup()
{
    provider_.reset();
    set_.reset();
    const double calibBefore = calib_.sample();
    const double t = tracer_.now();
    set_ = WorkloadFactory::buildDbSet(opt_.scale);
    const double s = tracer_.now() - t;
    tracer_.record("db.build", "", t, s);
    buildRefSeconds_.push_back(
        atReferenceSpeed(s, calibBefore, calib_.sample()));
    provider_.emplace(set_->workloads);
}

std::map<std::string, Drain>
Bench::gateFirstPass(const Pass &p)
{
    std::map<std::string, Drain> drains;
    bool forge = opt_.forgeViolation;
    for (const auto *jobs : {&p.timed, &p.reference}) {
        for (const JobOutcome &o : *jobs) {
            const std::string id = o.job.key();
            if (!o.error.empty()) {
                gate_.attempt(id, {o.error});
                continue;
            }
            std::vector<std::string> v = checkIdentities(
                forge ? forgeViolation(o.result) : o.result);
            forge = false;
            if (!o.job.config.server.enabled) {
                const std::string key = drainKey(o.job);
                if (drains.find(key) == drains.end()) {
                    const Drain d = drainExpander(workload(o.job.workload),
                                                  o.job.config);
                    tracer_.record("trace.expand", key,
                                   tracer_.now() - d.seconds, d.seconds);
                    drains.emplace(key, d);
                }
                for (auto &s : checkInstrs(o.result, drains[key].instrs))
                    v.push_back(std::move(s));
            }
            gate_.attempt(id, v);
        }
    }
    return drains;
}

void
Bench::untraced()
{
    const unsigned n = std::max(
        1u, static_cast<unsigned>(opt_.seconds / bw_.passSeconds));
    std::vector<Pass> passes;
    const auto start = Clock::now();
    for (unsigned k = 0; k < n; ++k) {
        // A host slowed down throughout the run makes fewer passes.
        if (k > 0 && since(start) > opt_.seconds)
            break;
        // Each pass sets up anew, so the set-ups spread over the run as
        // the passes do; run() made the first pass's set-up.
        if (k > 0)
            setup();
        passes.push_back(runPass(bw_, *provider_, runDir_, calib_));
    }

    gateFirstPass(passes.front());
    const Pass &first = passes.front();
    for (std::size_t k = 1; k < passes.size(); ++k) {
        for (const auto &[jobs, firstJobs] :
             {std::pair{&passes[k].timed, &first.timed},
              std::pair{&passes[k].reference, &first.reference}}) {
            for (std::size_t i = 0; i < jobs->size(); ++i) {
                const JobOutcome &o = (*jobs)[i];
                gate_.attempt(o.job.key(),
                              o.error.empty()
                                  ? checkEqual(o.result,
                                               (*firstJobs)[i].result,
                                               "first pass")
                                  : std::vector<std::string>{o.error});
            }
        }
    }

    std::cout << "pass seconds (host, at reference speed):";
    for (const Pass &p : passes) {
        double ref = 0.0;
        for (const auto *jobs : {&p.timed, &p.reference}) {
            for (const JobOutcome &o : *jobs)
                ref += o.refSeconds;
        }
        std::cout << " " << seconds(p.timed) + seconds(p.reference) << "/"
                  << ref;
    }
    std::cout << "\n";
    const double wall_s = fastestJobSeconds(passes, &Pass::timed);
    const double ref_wall_s = medianRefSeconds(passes, &Pass::timed);
    double instrs = 0.0;
    for (const JobOutcome &o : first.timed)
        instrs += static_cast<double>(o.result.instrs);
    metrics_.add("wall_s", wall_s, "s");
    metrics_.add("sim_minst_per_s", instrs / 1e6 / wall_s, "Minstr/s");
    metrics_.add("ref_wall_s", ref_wall_s, "s");
    metrics_.add("sim_minst_per_ref_s", instrs / 1e6 / ref_wall_s,
                 "Minstr/s");
    metrics_.add("passes", static_cast<double>(passes.size()), "count");
    addOutcomeMetrics(metrics_, first.timed, first.reference);
    metrics_.add("sampled_speedup",
                 bw_.reference
                     ? medianRefSeconds(passes, &Pass::reference) /
                         ref_wall_s
                     : 0.0,
                 "ratio");
    metrics_.add("exp.checkpoint_bytes",
                 static_cast<double>(first.checkpointBytes), "bytes");
    metrics_.add("exp.artifact_bytes",
                 static_cast<double>(first.artifactBytes), "bytes");
}

void
Bench::traced()
{
    const Pass base = runPass(bw_, *provider_, runDir_, calib_);

    std::vector<exp::JobSpec> jobs = exp::expandJobs(bw_.timed);
    if (bw_.reference) {
        for (exp::JobSpec &j : exp::expandJobs(*bw_.reference))
            jobs.push_back(std::move(j));
    }
    std::vector<const JobOutcome *> untracedOf;
    for (const auto *list : {&base.timed, &base.reference}) {
        for (const JobOutcome &o : *list)
            untracedOf.push_back(&o);
    }

    std::vector<JobOutcome> traced;
    const fs::path ckpt = runDir_ / "traced-checkpoints";
    fs::remove_all(ckpt);
    double calibBefore = calib_.sample();
    for (const exp::JobSpec &j : jobs) {
        JobOutcome o{j, {}, {}, {}, 0.0};
        try {
            TracedJob t = runTracedJob(workload(j.workload), j,
                                       ckpt.string(), tracer_);
            o.result = std::move(t.result);
            o.extras = t.extras;
        } catch (const std::exception &e) {
            o.error = std::string("traced run threw: ") + e.what();
        }
        // Rescaled like the untraced jobs, so trace_overhead_frac does
        // not move with the host's speed between the two runs.
        const double calibAfter = calib_.sample();
        o.refSeconds = atReferenceSpeed(tracer_.seconds("job", j.key()),
                                        calibBefore, calibAfter);
        calibBefore = calibAfter;
        traced.push_back(std::move(o));
    }
    fs::remove_all(runDir_);

    const std::map<std::string, Drain> drains = gateFirstPass(base);
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const JobOutcome &o = traced[i];
        gate_.attempt(o.job.key() + " (traced)",
                      o.error.empty()
                          ? checkEqual(o.result, untracedOf[i]->result,
                                       "untraced run")
                          : std::vector<std::string>{o.error});
    }

    // Host time per layer, from the spans.
    const Tracer &t = tracer_;
    double expand = 0.0, cpuSelf = 0.0, serverSelf = 0.0;
    double detail = 0.0, unattributed = 0.0;
    for (const exp::JobSpec &j : jobs) {
        const std::string id = j.key();
        const double hooks = t.seconds("prefetch.hook", id) +
            t.seconds("dprefetch.hook", id);
        const auto d = drains.find(drainKey(j));
        const double drain = d == drains.end() ? 0.0 : d->second.seconds;
        expand += drain;
        const double cpu = t.seconds("cpu.run", id);
        const double srv = t.seconds("server.run", id);
        const double smp = t.seconds("sample.run", id);
        if (cpu > 0.0)
            cpuSelf += cpu - hooks - drain;
        if (srv > 0.0)
            serverSelf += srv - hooks;
        if (smp > 0.0) {
            detail += smp - t.seconds("sample.warm", id) -
                t.seconds("exp.checkpoint", id);
        }
        unattributed += t.seconds("job", id) -
            t.seconds("codegen.layout", id) - cpu - srv - smp;
    }
    std::uint64_t drainedInstrs = 0;
    double drainSeconds = 0.0;
    for (const auto &[key, d] : drains) {
        drainedInstrs += d.instrs;
        drainSeconds += d.seconds;
    }

    metrics_.add("wall_s", seconds(base.timed), "s");
    metrics_.add("db.build_s", t.seconds("db.build"), "s");
    metrics_.add("codegen.layout_s", t.seconds("codegen.layout"), "s");
    metrics_.add("trace.expand_s", expand, "s");
    metrics_.add("trace.expand_minst_per_s",
                 drainSeconds == 0.0
                     ? 0.0
                     : static_cast<double>(drainedInstrs) / 1e6 /
                         drainSeconds,
                 "Minstr/s");
    metrics_.add("trace.pull_calls",
                 static_cast<double>(t.calls("trace.pull")), "count");
    metrics_.add("trace.pull_s", t.seconds("trace.pull"), "s");
    metrics_.add("cpu.run_s", t.seconds("cpu.run"), "s");
    metrics_.add("cpu.self_s", cpuSelf, "s");
    metrics_.add("prefetch.hook_calls",
                 static_cast<double>(t.calls("prefetch.hook")), "count");
    metrics_.add("prefetch.hook_s", t.seconds("prefetch.hook"), "s");
    metrics_.add("dprefetch.hook_calls",
                 static_cast<double>(t.calls("dprefetch.hook")), "count");
    metrics_.add("dprefetch.hook_s", t.seconds("dprefetch.hook"), "s");
    metrics_.add("server.run_s", t.seconds("server.run"), "s");
    metrics_.add("server.self_s", serverSelf, "s");
    metrics_.add("sample.run_s", t.seconds("sample.run"), "s");
    metrics_.add("sample.warm_s", t.seconds("sample.warm"), "s");
    metrics_.add("sample.detail_s", detail, "s");
    metrics_.add("exp.checkpoint_s", t.seconds("exp.checkpoint"), "s");
    metrics_.add("exp.checkpoint_bytes",
                 static_cast<double>(base.checkpointBytes), "bytes");
    metrics_.add("exp.artifact_bytes",
                 static_cast<double>(base.artifactBytes), "bytes");
    double tracedRef = 0.0, untracedRef = 0.0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        tracedRef += traced[i].refSeconds;
        untracedRef += untracedOf[i]->refSeconds;
    }
    metrics_.add("trace_overhead_frac", tracedRef / untracedRef - 1.0,
                 "ratio");
    metrics_.add("unattributed_s", unattributed, "s");

    addLayerMetrics(metrics_, traced);
    addOutcomeMetrics(metrics_, base.timed, base.reference);
    metrics_.add("sampled_speedup",
                 bw_.reference
                     ? seconds(base.reference) / seconds(base.timed)
                     : 0.0,
                 "ratio");

    const fs::path spans = fs::path(opt_.workDir) /
        ("spans-" + opt_.workload + "-seed" + std::to_string(opt_.seed) +
         ".json");
    tracer_.writeChromeTrace(spans.string());
    std::cout << "spans written to " << spans.string() << "\n";
}

void
Bench::print() const
{
    for (const Metric &m : metrics_.all()) {
        std::cout << "  " << std::left << std::setw(26) << m.name
                  << std::right << std::setw(16) << std::setprecision(6)
                  << m.value << "  " << m.unit << "\n";
    }

    const auto value = [this](const std::string &name) {
        for (const Metric &m : metrics_.all()) {
            if (m.name == name)
                return m.value;
        }
        return 0.0;
    };
    std::cout << "paper reference (scale " << opt_.scale << "):\n";
    if (opt_.workload == "db-fig6") {
        std::cout << "  cgp_over_nl           " << value("cgp_over_nl")
                  << "  paper ~1.07\n"
                  << "  cgp_over_perfect      "
                  << value("cgp_over_perfect") << "  paper ~1.19\n";
    }
    std::cout << "  trace.instrs_per_call "
              << value("trace.instrs_per_call") << "  paper ~43\n"
              << "  The model is not validated against hardware, so no "
                 "hardware error figure is given.\n";

    std::cout << "gate: " << gate_.failed() << " of " << gate_.attempted()
              << " job executions failed\n";
    for (const std::string &r : gate_.reasons())
        std::cout << "  FAIL " << r << "\n";
}

int
Bench::run()
{
    std::cout << "perfbench workload=" << opt_.workload
              << " seed=" << opt_.seed << " scale=" << opt_.scale
              << " trace=" << (opt_.trace ? 1 : 0) << std::endl;
    setup();
    if (opt_.trace)
        traced();
    else
        untraced();
    metrics_.add("setup_s", median(buildRefSeconds_), "s");
    metrics_.add("calib_s", median(calib_.seconds), "s");
    metrics_.add("peak_rss_mb", peakRssMb(), "MB");
    metrics_.add("failed_frac", gate_.failedFrac(), "ratio");
    print();

    Json out = Json::object();
    out.set("correct", gate_.failed() == 0);
    out.set("attempted", static_cast<std::uint64_t>(gate_.attempted()));
    out.set("failed", static_cast<std::uint64_t>(gate_.failed()));
    out.set("metrics", metrics_.json());
    std::cout << out.dump() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Bench bench(parseArgs(argc, argv));
        return bench.run();
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
