#include "exp/rundir.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>

#include <cerrno>
#include <csignal>
#include <unistd.h>

#include "exp/integrity.hh"
#include "fault/fault.hh"
#include "harness/report.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace cgp::exp
{

namespace
{

constexpr int manifestSchema = 3;

/** Throw SchemaMismatch unless manifest @p m has this build's
 *  schema. */
void
requireSchema(const Json &m, const std::string &path)
{
    const Json *s = m.find("schema");
    const std::int64_t schema =
        s != nullptr && s->isNumber() ? s->asInt() : 0;
    if (schema == manifestSchema)
        return;
    throw SchemaMismatch(
        "run directory " + path + " has schema " +
        std::to_string(schema) + ", but this build reads schema " +
        std::to_string(manifestSchema) +
        "; start it again with --fresh");
}

/**
 * Lock paths held by *this* process.  The pid in the lock file only
 * distinguishes foreign processes; two RunDirs in one process (e.g.
 * a test opening the dir it is already running) share a pid, so
 * in-process exclusion needs its own registry.
 */
std::mutex heldLocksMu;
std::set<std::string> heldLocks; // NOLINT: process lifetime

std::string
lockKey(const std::string &path)
{
    std::error_code ec;
    const auto abs = std::filesystem::absolute(path, ec);
    return ec ? path : abs.lexically_normal().string();
}

/** A job file read back: missing (neither member set), usable
 *  (result) or unusable (problem). */
struct JobFileRead
{
    std::optional<SimResult> result;
    std::string problem;
};

/**
 * The one check of a job file, shared by resume, report and verify:
 * @p job's file in run dir @p dir must be sealed and carry
 * @p fingerprint and the job's own index, workload and config.
 */
JobFileRead
readJobFile(const std::string &dir, const JobSpec &job,
            const std::string &fingerprint)
{
    SealedRead sealed =
        readSealedJson(dir + "/" + RunDir::jobFileName(job.index));
    JobFileRead read;
    read.problem = std::move(sealed.problem);
    if (!sealed.doc)
        return read;
    const Json &f = *sealed.doc;
    try {
        const std::uint64_t index = f.at("index").asUint();
        const std::string &workload = f.at("workload").asString();
        const std::string &config = f.at("config").asString();
        if (f.at("fingerprint").asString() != fingerprint) {
            read.problem = "foreign fingerprint";
        } else if (index != job.index || workload != job.workload ||
                   config != job.label) {
            read.problem = "job identity mismatch: holds job " +
                std::to_string(index) + " (" + workload + ", " +
                config + ")";
        } else {
            read.result = simResultFromJson(f.at("result"));
        }
    } catch (const std::exception &e) {
        read.problem = std::string("unreadable: ") + e.what();
    }
    return read;
}

bool
processAlive(long pid)
{
    if (pid <= 0)
        return false;
    if (::kill(static_cast<pid_t>(pid), 0) == 0)
        return true;
    return errno == EPERM; // exists, owned by someone else
}

} // anonymous namespace

RunDir::RunDir(std::string path) : path_(std::move(path)) {}

RunDir::~RunDir()
{
    releaseLock();
}

std::string
RunDir::jobFileName(std::size_t index)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "job-%04zu.json", index);
    return buf;
}

std::string
RunDir::manifestPath() const
{
    return path_ + "/manifest.json";
}

std::string
RunDir::jobFilePath(std::size_t index) const
{
    return path_ + "/" + jobFileName(index);
}

std::string
RunDir::quarantineDir() const
{
    return path_ + "/quarantine";
}

void
RunDir::acquireLock()
{
    const std::string lockPath = path_ + "/.lock";
    const std::string key = lockKey(path_);
    {
        std::lock_guard<std::mutex> lock(heldLocksMu);
        if (heldLocks.count(key) != 0) {
            throw std::runtime_error(
                "run directory " + path_ +
                " is already locked by this process");
        }
    }
    if (std::filesystem::exists(lockPath)) {
        // An unreadable lock is stale, and so is one without its
        // newline: a torn write whose digits may name another live
        // process.
        long pid = 0;
        try {
            const std::string text = readFileOrThrow(lockPath);
            if (!text.empty() && text.back() == '\n')
                pid = std::stol(text);
        } catch (const std::exception &) {
            pid = 0;
        }
        if (pid == static_cast<long>(::getpid()) ||
            !processAlive(pid)) {
            cgp_warn("stealing stale lock on ", path_,
                     " (owner pid ", pid, " is gone)");
        } else {
            throw std::runtime_error(
                "run directory " + path_ +
                " is locked by live process " +
                std::to_string(pid) +
                "; remove " + lockPath + " if that is wrong");
        }
    }
    writeFileAtomicDurable(lockPath,
                           std::to_string(::getpid()) + "\n");
    {
        std::lock_guard<std::mutex> lock(heldLocksMu);
        heldLocks.insert(key);
    }
    holdsLock_ = true;
}

void
RunDir::releaseLock()
{
    if (!holdsLock_)
        return;
    holdsLock_ = false;
    {
        std::lock_guard<std::mutex> lock(heldLocksMu);
        heldLocks.erase(lockKey(path_));
    }
    std::error_code ec;
    std::filesystem::remove(path_ + "/.lock", ec);
}

void
RunDir::sweepTmpFiles()
{
    for (const auto &entry :
         std::filesystem::directory_iterator(path_)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".tmp") == 0) {
            std::error_code ec;
            std::filesystem::remove(entry.path(), ec);
            if (!ec)
                ++sweptTmp_;
        }
    }
    if (sweptTmp_ != 0) {
        cgp_warn("swept ", sweptTmp_, " orphaned tmp file(s) in ",
                 path_, " (previous writer died mid-write)");
    }
}

void
RunDir::quarantine(const std::string &file, const std::string &why)
{
    quarantineFile(file, quarantineDir(), why);
    ++quarantined_;
}

void
RunDir::prepare(const CampaignSpec &spec,
                const std::vector<JobSpec> &jobs,
                const std::string &fingerprint)
{
    if (!enabled())
        return;
    campaign_ = spec.name;
    title_ = spec.title;
    fingerprint_ = fingerprint;
    jobs_ = jobs;

    std::filesystem::create_directories(path_);
    acquireLock();
    sweepTmpFiles();

    const SealedRead existing = readSealedJson(manifestPath());
    if (!existing.problem.empty()) {
        // Corruption, not a user error: quarantine and rewrite the
        // manifest; the job files still say what is done.
        quarantine(manifestPath(), "manifest " + existing.problem);
    } else if (existing.doc) {
        requireSchema(*existing.doc, path_);
        const std::string &other =
            existing.doc->at("fingerprint").asString();
        if (other != fingerprint_) {
            throw ForeignRunDir(
                "run directory " + path_ +
                " holds another campaign, spec or workload scale "
                "(fingerprint " +
                other + " != " + fingerprint_ + ")");
        }
    }
    writeManifest({});
}

void
RunDir::writeManifest(const std::vector<JobFailure> &failures) const
{
    Json m = Json::object();
    m.set("schema", manifestSchema);
    m.set("campaign", campaign_);
    m.set("title", title_);
    m.set("fingerprint", fingerprint_);
    Json jobs = Json::array();
    for (const JobSpec &j : jobs_) {
        Json e = Json::object();
        e.set("index", j.index);
        e.set("workload", j.workload);
        e.set("config", j.label);
        e.set("file", jobFileName(j.index));
        const auto failure = std::find_if(
            failures.begin(), failures.end(),
            [&j](const JobFailure &f) { return f.index == j.index; });
        if (failure != failures.end()) {
            Json err = Json::object();
            err.set("kind", failure->kind);
            err.set("message", failure->message);
            e.set("error", std::move(err));
        }
        jobs.push(std::move(e));
    }
    m.set("jobs", std::move(jobs));
    writeFileAtomicDurable(manifestPath(), sealedJsonText(m));
}

std::map<std::size_t, SimResult>
RunDir::loadCompleted()
{
    std::map<std::size_t, SimResult> out;
    for (const JobSpec &j : jobs_) {
        JobFileRead read = readJobFile(path_, j, fingerprint_);
        if (read.result)
            out.emplace(j.index, std::move(*read.result));
        else if (!read.problem.empty())
            quarantine(jobFilePath(j.index), read.problem);
    }
    return out;
}

void
RunDir::recordResult(const JobSpec &job, const SimResult &result)
{
    if (!enabled())
        return;
    // Crash here = the job dies before its result is durable; a
    // resumed campaign runs it again.
    fault::hit("exp.pre_record");

    Json f = Json::object();
    f.set("schema", manifestSchema);
    f.set("fingerprint", fingerprint_);
    f.set("index", job.index);
    f.set("workload", job.workload);
    f.set("config", job.label);
    f.set("result", toJson(result));
    writeFileAtomicDurable(jobFilePath(job.index), sealedJsonText(f));

    // Crash here = the process dies with the job file durable; a
    // resumed campaign must skip it.
    fault::hit("exp.record");
}

void
RunDir::recordFailures(const std::vector<JobFailure> &failures) const
{
    if (enabled() && !failures.empty())
        writeManifest(failures);
}

LoadedRun
loadRunDir(const std::string &path)
{
    const std::string manifest = path + "/manifest.json";
    const SealedRead read = readSealedJson(manifest);
    if (!read.doc) {
        throw std::runtime_error(
            manifest + ": " +
            (read.problem.empty() ? "missing" : read.problem));
    }
    const Json &m = *read.doc;
    requireSchema(m, path);
    LoadedRun run;
    run.campaign = m.at("campaign").asString();
    run.title = m.at("title").asString();
    run.fingerprint = m.at("fingerprint").asString();
    for (const Json &e : m.at("jobs").items()) {
        JobSpec j;
        j.index = e.at("index").asUint();
        j.workload = e.at("workload").asString();
        j.label = e.at("config").asString();
        if (const Json *err = e.find("error"); err != nullptr) {
            JobFailure f;
            f.index = j.index;
            f.kind = err->at("kind").asString();
            f.message = err->at("message").asString();
            run.failures.emplace(j.index, std::move(f));
        }
        JobFileRead job = readJobFile(path, j, run.fingerprint);
        if (job.result)
            run.results.emplace(j.index, std::move(*job.result));
        else if (!job.problem.empty())
            run.rejected.emplace(j.index, std::move(job.problem));
        run.jobs.push_back(std::move(j));
    }
    return run;
}

VerifyReport
verifyRunDir(const std::string &path)
{
    VerifyReport report;

    // Quarantine inventory (informational, not an issue by itself).
    const std::string qdir = path + "/quarantine";
    if (std::filesystem::is_directory(qdir)) {
        for (const auto &entry :
             std::filesystem::directory_iterator(qdir)) {
            report.quarantineEntries.push_back(
                entry.path().filename().string());
        }
        std::sort(report.quarantineEntries.begin(),
                  report.quarantineEntries.end());
    }

    // Orphaned tmp files mean a writer died and nothing swept yet.
    if (std::filesystem::is_directory(path)) {
        for (const auto &entry :
             std::filesystem::directory_iterator(path)) {
            if (!entry.is_regular_file())
                continue;
            const std::string name =
                entry.path().filename().string();
            if (name.size() > 4 &&
                name.compare(name.size() - 4, 4, ".tmp") == 0) {
                report.issues.push_back(
                    {name, "orphaned tmp file (torn write)"});
            }
        }
    }

    LoadedRun run;
    try {
        run = loadRunDir(path);
    } catch (const SchemaMismatch &e) {
        report.schemaMismatch = true;
        report.issues.push_back({"manifest.json", e.what()});
        return report;
    } catch (const std::exception &e) {
        report.issues.push_back({"manifest.json", e.what()});
        return report;
    }
    report.manifestOk = true;
    report.campaign = run.campaign;
    report.fingerprint = run.fingerprint;
    report.jobsTotal = run.jobs.size();
    report.jobsDone = report.jobFilesOk = run.results.size();
    for (const auto &[index, failure] : run.failures)
        report.jobsFailed += run.results.count(index) == 0 ? 1 : 0;
    report.jobsPending =
        report.jobsTotal - report.jobsDone - report.jobsFailed;
    for (const auto &[index, problem] : run.rejected)
        report.issues.push_back({RunDir::jobFileName(index), problem});
    return report;
}

} // namespace cgp::exp
