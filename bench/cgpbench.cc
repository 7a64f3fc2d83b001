/**
 * @file
 * cgpbench — unified driver for the paper's experiment campaigns.
 *
 *   cgpbench list
 *       Show every campaign with its group (figures/ablations; the
 *       group "all" is both).
 *
 *   cgpbench run <campaign|group>... [options]
 *       Run campaigns on the parallel engine, print each one's
 *       cycle tables and figure section, and write one
 *       BENCH_<name>.json per campaign.
 *         --threads N       worker threads (default: hardware)
 *         --dir D           parent directory for resumable run dirs
 *         --artifact-dir D  where BENCH_*.json goes (default ".")
 *         --fresh           discard any previous run dir first
 *         --quiet           suppress per-job progress logging
 *         --on-fail P       strict (abort) or degrade (finish the
 *                           healthy jobs, record the failures)
 *         --watchdog-cycles N   per-job cycle budget (deterministic)
 *         --watchdog-wall S     per-job wall-clock budget, seconds
 *
 *   cgpbench resume <dir> [options]
 *       Finish a killed run: re-run its campaign with the same run
 *       directory; completed jobs are loaded, not re-simulated, and
 *       corrupt artifacts are quarantined + re-run automatically.
 *
 *   cgpbench report <dir>
 *       Summarize a run directory without simulating anything: job
 *       status, and once every job is done or failed, the same
 *       tables `run` prints, failed jobs and their causes included.
 *
 *   cgpbench show table1|callgraph|anatomy
 *       Print a page that runs no campaign: Table 1's machine
 *       parameters, the §3.2 call-graph statistics, or the
 *       workload anatomy.
 *
 *   cgpbench verify <dir>
 *       Audit a run directory's artifact integrity (CRC seals,
 *       fingerprints, job identities, orphaned tmp files,
 *       quarantine inventory)
 *       without modifying it.  Exit 0 iff everything checks out.
 *
 *   cgpbench chaos <campaign> --dir D [options]
 *       Kill/resume torture loop: repeatedly crash the campaign at
 *       injected fault points (and corrupt surviving artifacts),
 *       then assert a final clean resume reproduces the
 *       uninterrupted BENCH byte-for-byte.
 *         --cycles N        kill/resume cycles (default 25)
 *         --seed S          seed of the fault and corruption schedule
 *
 * A numeric option value must parse as a whole: `--watchdog-cycles
 * 1e6` or `--watchdog-wall abc` is an error (exit 2) before any job
 * runs.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/artifact.hh"
#include "exp/campaigns.hh"
#include "exp/chaosloop.hh"
#include "exp/engine.hh"
#include "exp/figures.hh"
#include "exp/rundir.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace
{

using namespace cgp;
using namespace cgp::exp;

struct Options
{
    std::vector<std::string> names;
    unsigned threads = 0;
    std::string dir;
    std::string artifactDir = ".";
    std::string artifactFile; // single campaign only
    std::optional<std::uint64_t> chaosSeed;
    bool fresh = false;
    bool quiet = false;
    std::optional<FailurePolicy> onFail;
    std::uint64_t watchdogCycles = 0;
    double watchdogWall = 0.0;
    unsigned chaosCycles = 25;
};

int
usage()
{
    std::cerr
        << "usage: cgpbench list\n"
        << "       cgpbench run <campaign|figures|ablations|all>...\n"
        << "           [--threads N] [--dir D]\n"
        << "           [--artifact-dir D] [--artifact FILE]\n"
        << "           [--fresh] [--quiet]\n"
        << "           [--on-fail strict|degrade]\n"
        << "           [--watchdog-cycles N] [--watchdog-wall S]\n"
        << "       cgpbench resume <dir | name --dir D>\n"
        << "           [--threads N] [--quiet]\n"
        << "           [--on-fail strict|degrade]\n"
        << "       cgpbench report <dir | name --dir D>\n"
        << "       cgpbench show table1|callgraph|anatomy\n"
        << "       cgpbench verify <dir | name --dir D>\n"
        << "       cgpbench chaos <campaign> --dir D [--cycles N]\n"
        << "           [--threads N] [--seed S]\n";
    return 2;
}

/**
 * Parse the whole of @p text as a number.  Rejects an empty string,
 * trailing characters ("1e6" as an integer), a sign on an unsigned
 * type, out-of-range values, and negative or non-finite reals.
 */
template <typename T>
bool
parseNumber(const char *text, T &out)
{
    const char *end = text + std::strlen(text);
    T v{};
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v) || v < 0)
            return false;
    }
    out = v;
    return true;
}

/** @p chaos: the command is `chaos`, the only one that takes --seed. */
bool
parseOptions(int argc, char **argv, int first, bool chaos, Options &opt)
{
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "cgpbench: " << a
                          << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        const auto number = [&](auto &out) {
            const char *v = value();
            if (!v)
                return false;
            if (!parseNumber(v, out)) {
                std::cerr << "cgpbench: " << a << ": invalid value '"
                          << v << "'\n";
                return false;
            }
            return true;
        };
        if (a == "--threads") {
            if (!number(opt.threads))
                return false;
        } else if (a == "--dir") {
            const char *v = value();
            if (!v)
                return false;
            opt.dir = v;
        } else if (a == "--seed" && chaos) {
            std::uint64_t seed = 0;
            if (!number(seed))
                return false;
            opt.chaosSeed = seed;
        } else if (a == "--artifact-dir") {
            const char *v = value();
            if (!v)
                return false;
            opt.artifactDir = v;
        } else if (a == "--artifact") {
            const char *v = value();
            if (!v)
                return false;
            opt.artifactFile = v;
        } else if (a == "--on-fail") {
            const char *v = value();
            if (!v)
                return false;
            try {
                opt.onFail = failurePolicyFromString(v);
            } catch (const std::invalid_argument &e) {
                std::cerr << "cgpbench: " << e.what() << "\n";
                return false;
            }
        } else if (a == "--watchdog-cycles") {
            if (!number(opt.watchdogCycles))
                return false;
        } else if (a == "--watchdog-wall") {
            if (!number(opt.watchdogWall))
                return false;
        } else if (a == "--cycles") {
            if (!number(opt.chaosCycles))
                return false;
        } else if (a == "--fresh") {
            opt.fresh = true;
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else if (!a.empty() && a[0] == '-') {
            std::cerr << "cgpbench: unknown option " << a << "\n";
            return false;
        } else {
            opt.names.push_back(a);
        }
    }
    return true;
}

std::vector<std::string>
expandGroups(const std::vector<std::string> &names)
{
    std::vector<std::string> out;
    for (const std::string &n : names) {
        for (const std::string &c : campaignGroup(n)) {
            if (std::find(out.begin(), out.end(), c) == out.end())
                out.push_back(c);
        }
    }
    return out;
}

int
cmdList()
{
    TablePrinter t("Campaigns");
    t.setHeader({"name", "group", "jobs", "title"});
    for (const std::string &name : campaignNames()) {
        const CampaignEntry &entry = *findCampaign(name);
        const CampaignSpec spec = entry.make();
        const std::string group = entry.group;
        t.addRow({name, group.empty() ? "-" : group,
                  std::to_string(expandJobs(spec).size()),
                  spec.title});
    }
    t.print(std::cout);
    std::cout << "\nGroups: figures, ablations, all (both); a "
                 "campaign without a group is only run by name\n";
    return 0;
}

EngineOptions
engineOptions(const Options &opt)
{
    EngineOptions eopt;
    eopt.threads = opt.threads;
    eopt.verbose = !opt.quiet;
    eopt.onFail = opt.onFail;
    eopt.watchdogCycles = opt.watchdogCycles;
    eopt.watchdogWallSeconds = opt.watchdogWall;
    return eopt;
}

std::string
artifactPath(const Options &opt, const std::string &campaign)
{
    return !opt.artifactFile.empty()
        ? opt.artifactFile
        : opt.artifactDir + "/BENCH_" + campaign + ".json";
}

/** The command that starts the run dir @p dir (laid out as
 *  <dir>/<campaign>) again from nothing: what a run dir of another
 *  schema needs, since no resume can read it. */
std::string
freshCommand(const std::string &dir)
{
    const std::filesystem::path path(dir);
    const std::string parent = path.parent_path().string();
    return "cgpbench run " + path.filename().string() + " --dir " +
        (parent.empty() ? "." : parent) + " --fresh";
}

/** Print why the run dir @p dir was refused (by @p cmd) and the
 *  command that starts it again; returns the exit code. */
int
refuse(const char *cmd, const std::exception &why, const std::string &dir)
{
    std::cerr << "cgpbench " << cmd << ": " << why.what()
              << "\nStart it again with: " << freshCommand(dir) << "\n";
    return 1;
}

/** Run one campaign, print it, write its BENCH artifact and a
 *  summary line; returns the number of terminally failed jobs. */
std::size_t
runAndEmit(const CampaignSpec &spec, PaperWorkloadBank &bank,
           const EngineOptions &eopt, const std::string &artifact)
{
    const CampaignRun run = runCampaign(spec, bank, eopt);

    printCampaign(run, std::cout);
    writeBenchJson(artifact, run);
    std::cout << "\n[" << spec.name << "] " << run.executed
              << " jobs run, " << run.skipped << " resumed, "
              << run.failures.size() << " failed, "
              << run.threadsUsed << " threads, "
              << TablePrinter::fixed(run.wallSeconds, 1)
              << "s; artifact " << artifact << "\n";
    if (run.quarantined != 0) {
        std::cout << "[" << spec.name << "] quarantined "
                  << run.quarantined
                  << " corrupt artifact(s); see "
                  << eopt.runDir << "/quarantine\n";
    }
    std::cout << "\n";
    return run.failures.size();
}

int
cmdRun(const Options &opt)
{
    if (opt.names.empty()) {
        std::cerr << "cgpbench run: no campaigns given\n";
        return usage();
    }
    const std::vector<std::string> names = expandGroups(opt.names);
    if (!opt.artifactFile.empty() && names.size() != 1) {
        std::cerr << "cgpbench run: --artifact needs exactly one "
                     "campaign\n";
        return 2;
    }
    PaperWorkloadBank bank;
    std::size_t failed = 0;
    for (const std::string &name : names) {
        const CampaignSpec spec = paperCampaign(name);
        EngineOptions eopt = engineOptions(opt);
        if (!opt.dir.empty()) {
            eopt.runDir = opt.dir + "/" + name;
            if (opt.fresh)
                std::filesystem::remove_all(eopt.runDir);
        }
        try {
            failed +=
                runAndEmit(spec, bank, eopt, artifactPath(opt, name));
        } catch (const ForeignRunDir &e) {
            return refuse("run", e, eopt.runDir);
        }
    }
    // A degraded campaign completed but is not healthy; make the
    // exit code say so for CI.
    return failed == 0 ? 0 : 3;
}

/** resume/report/verify accept either a literal run-dir path or a
 *  campaign name plus --dir, mirroring how `run` lays out
 *  `<dir>/<campaign>`. */
std::string
resolveRunDir(const Options &opt)
{
    if (opt.dir.empty())
        return opt.names[0];
    return opt.dir + "/" + opt.names[0];
}

int
cmdResume(const Options &opt)
{
    if (opt.names.size() != 1) {
        std::cerr << "cgpbench resume: need exactly one run dir\n";
        return usage();
    }
    const std::string dir = resolveRunDir(opt);

    // The manifest normally tells us which campaign the dir holds.
    // If it is corrupt or torn, fall back to the directory name
    // (run dirs are laid out as <dir>/<campaign>): the engine's
    // prepare step then quarantines the bad manifest, rewrites it,
    // and keeps every job file that still checks out.
    std::string campaign;
    try {
        campaign = loadRunDir(dir).campaign;
    } catch (const SchemaMismatch &e) {
        return refuse("resume", e, dir);
    } catch (const std::exception &e) {
        campaign = std::filesystem::path(dir).filename().string();
        std::cerr << "cgpbench resume: manifest unreadable ("
                  << e.what() << "); recovering campaign \""
                  << campaign << "\" from the directory name\n";
    }

    const CampaignSpec spec = paperCampaign(campaign);

    PaperWorkloadBank bank;
    EngineOptions eopt = engineOptions(opt);
    eopt.runDir = dir;
    try {
        const std::size_t failed =
            runAndEmit(spec, bank, eopt, artifactPath(opt, campaign));
        return failed == 0 ? 0 : 3;
    } catch (const ForeignRunDir &e) {
        return refuse("resume", e, dir);
    }
}

/** The run-dir view as a finished run, for the shared printers.
 *  Jobs without a result and not failed are left default. */
CampaignRun
toCampaignRun(const LoadedRun &loaded)
{
    CampaignRun run;
    run.name = loaded.campaign;
    run.title = loaded.title;
    run.fingerprint = loaded.fingerprint;
    run.jobs = loaded.jobs;
    run.results.resize(loaded.jobs.size());
    for (const auto &[index, r] : loaded.results)
        run.results[index] = r;
    for (const auto &[index, f] : loaded.failures)
        run.failures.push_back(f);
    return run;
}

int
cmdReport(const Options &opt)
{
    if (opt.names.size() != 1) {
        std::cerr << "cgpbench report: need exactly one run dir\n";
        return usage();
    }
    const std::string dir = resolveRunDir(opt);
    LoadedRun run;
    try {
        run = loadRunDir(dir);
    } catch (const SchemaMismatch &e) {
        return refuse("report", e, dir);
    } catch (const std::exception &e) {
        std::cerr << "cgpbench report: " << e.what()
                  << "\nAudit with: cgpbench verify " << dir
                  << "\nRecover with: cgpbench resume " << dir
                  << "\n";
        return 1;
    }

    std::cout << "Campaign:    " << run.campaign << " — "
              << run.title << "\n"
              << "Fingerprint: " << run.fingerprint << "\n"
              << "Jobs:        " << run.results.size() << "/"
              << run.jobs.size() << " complete, "
              << run.failures.size() << " failed\n\n";

    TablePrinter t("Job status");
    t.setHeader({"job", "workload", "config", "status", "cycles"});
    for (const JobSpec &j : run.jobs) {
        const auto it = run.results.find(j.index);
        const bool failed =
            run.failures.find(j.index) != run.failures.end();
        const char *status = it != run.results.end() ? "done"
            : failed                                 ? "failed"
                                                     : "pending";
        t.addRow({std::to_string(j.index), j.workload, j.label,
                  status,
                  it == run.results.end()
                      ? "-"
                      : TablePrinter::num(it->second.cycles)});
    }
    t.print(std::cout);

    // Once nothing is pending, the run dir holds everything `run`
    // printed; a run with pending jobs has no complete tables yet.
    const CampaignRun full = toCampaignRun(run);
    const bool pending = std::any_of(
        run.jobs.begin(), run.jobs.end(), [&run](const JobSpec &j) {
            return run.results.count(j.index) == 0 &&
                run.failures.count(j.index) == 0;
        });
    if (!pending) {
        std::cout << "\n";
        printCampaign(full, std::cout);
        return 0;
    }
    if (!run.failures.empty()) {
        std::cout << "\n";
        printFailures(full, std::cout);
    }
    std::cout << "\nResume with: cgpbench resume " << dir << "\n";
    return 0;
}

int
cmdShow(const Options &opt)
{
    static const std::pair<const char *, void (*)(std::ostream &)>
        pages[] = {{"table1", showTable1},
                   {"callgraph", showCallGraph},
                   {"anatomy", showAnatomy}};
    if (opt.names.size() == 1) {
        for (const auto &[name, show] : pages) {
            if (opt.names[0] == name) {
                show(std::cout);
                return 0;
            }
        }
    }
    std::cerr << "cgpbench show: expected one of table1, callgraph, "
                 "anatomy\n";
    return 2;
}

int
cmdVerify(const Options &opt)
{
    if (opt.names.size() != 1) {
        std::cerr << "cgpbench verify: need exactly one run dir\n";
        return usage();
    }
    const std::string dir = resolveRunDir(opt);
    if (!std::filesystem::is_directory(dir)) {
        std::cerr << "cgpbench verify: no such run dir: " << dir
                  << "\n";
        return 2;
    }
    const VerifyReport report = verifyRunDir(dir);

    std::cout << "Run dir:     " << dir << "\n";
    if (report.manifestOk) {
        std::cout << "Campaign:    " << report.campaign << "\n"
                  << "Fingerprint: " << report.fingerprint << "\n"
                  << "Jobs:        " << report.jobsTotal << " ("
                  << report.jobsDone << " done, "
                  << report.jobsPending << " pending, "
                  << report.jobsFailed << " failed)\n"
                  << "Job files:   " << report.jobFilesOk
                  << " verified OK\n";
    } else {
        std::cout << "Manifest:    "
                  << (report.schemaMismatch ? "another schema" : "INVALID")
                  << "\n";
    }
    if (!report.quarantineEntries.empty()) {
        std::cout << "Quarantine:  "
                  << report.quarantineEntries.size()
                  << " artifact(s)\n";
        for (const std::string &q : report.quarantineEntries)
            std::cout << "    " << q << "\n";
    }
    if (!report.issues.empty()) {
        std::cout << "\n";
        TablePrinter t("Integrity issues");
        t.setHeader({"artifact", "problem"});
        for (const VerifyIssue &i : report.issues)
            t.addRow({i.file, i.problem});
        t.print(std::cout);
        if (report.schemaMismatch) {
            std::cout << "\nThis build cannot read it; start it "
                         "again with: "
                      << freshCommand(dir) << "\n";
        } else {
            std::cout << "\nA resume (cgpbench resume " << dir
                      << ") quarantines these and re-runs the "
                         "affected jobs.\n";
        }
    }
    std::cout << (report.ok() ? "\nOK\n" : "\nNOT OK\n");
    return report.ok() ? 0 : 1;
}

int
cmdChaos(const Options &opt)
{
    if (opt.names.size() != 1) {
        std::cerr << "cgpbench chaos: need exactly one campaign\n";
        return usage();
    }
    if (opt.dir.empty()) {
        std::cerr << "cgpbench chaos: --dir is required (the loop "
                     "kills and resumes a persistent run dir)\n";
        return 2;
    }
    const CampaignSpec spec = paperCampaign(opt.names[0]);

    ChaosLoopConfig config;
    config.cycles = opt.chaosCycles;
    config.threads = opt.threads != 0 ? opt.threads : 2;
    config.dir = opt.dir + "/" + spec.name + "-chaos";
    config.verbose = !opt.quiet;
    if (opt.chaosSeed)
        config.seed = *opt.chaosSeed;

    PaperWorkloadBank bank;
    ChaosLoopHarness harness(spec, bank, config);
    const ChaosLoopResult result = harness.run();

    std::cout << "Chaos loop:  " << spec.name << "\n"
              << "Cycles:      " << result.cycles << " ("
              << result.crashes << " crashes, "
              << result.cleanRuns << " clean)\n"
              << "Corruptions: " << result.corruptions << "\n"
              << "Quarantined: " << result.quarantined << "\n"
              << "Jobs run:    " << result.executedJobs << "\n"
              << "Verdict:     "
              << (result.identical
                      ? "BENCH byte-identical to uninterrupted run"
                      : "MISMATCH: " + result.mismatch)
              << "\n";
    return result.ok() ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    Options opt;
    if (!parseOptions(argc, argv, 2, cmd == "chaos", opt))
        return 2;

    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "run")
            return cmdRun(opt);
        if (cmd == "resume")
            return cmdResume(opt);
        if (cmd == "report")
            return cmdReport(opt);
        if (cmd == "show")
            return cmdShow(opt);
        if (cmd == "verify")
            return cmdVerify(opt);
        if (cmd == "chaos")
            return cmdChaos(opt);
    } catch (const std::exception &e) {
        std::cerr << "cgpbench: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "cgpbench: unknown command '" << cmd << "'\n";
    return usage();
}
