#include "exp/rundir.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>
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
        long pid = 0;
        try {
            pid = std::stol(readFileOrThrow(lockPath));
        } catch (const std::exception &) {
            pid = 0; // unreadable lock: treat as stale
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
RunDir::quarantineFile(const std::string &file,
                       const std::string &why)
{
    std::filesystem::create_directories(quarantineDir());
    const std::string base =
        std::filesystem::path(file).filename().string();
    std::string dest = quarantineDir() + "/" + base;
    for (int n = 1; std::filesystem::exists(dest); ++n)
        dest = quarantineDir() + "/" + base + "." + std::to_string(n);
    std::error_code ec;
    std::filesystem::rename(file, dest, ec);
    if (ec) {
        // Cross-device or permission trouble: fall back to delete so
        // the corrupt artifact at least cannot poison the run.
        std::filesystem::remove(file, ec);
    }
    ++quarantined_;
    cgp_warn("quarantined ", base, ": ", why);
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
    done_.assign(jobs.size(), false);
    failed_.clear();

    std::filesystem::create_directories(path_);
    acquireLock();
    sweepTmpFiles();

    if (std::filesystem::exists(manifestPath())) {
        Json m;
        bool valid = false;
        std::string existing;
        std::string why;
        try {
            m = Json::parse(readFileOrThrow(manifestPath()));
            if (!verifySealedJson(m)) {
                why = "manifest CRC seal mismatch";
            } else {
                existing = m.at("fingerprint").asString();
                valid = true;
            }
        } catch (const std::exception &e) {
            why = std::string("manifest unreadable: ") + e.what();
        }
        if (!valid) {
            // Corruption, not a user error: quarantine and rebuild
            // the manifest from the job files.
            quarantineFile(manifestPath(), why);
        } else {
            requireSchema(m, path_);
            if (existing != fingerprint_) {
                throw ForeignRunDir(
                    "run directory " + path_ +
                    " holds another campaign, spec or workload scale "
                    "(fingerprint " +
                    existing + " != " + fingerprint_ + ")");
            }
        }
    }
    writeManifest();
}

void
RunDir::writeManifest() const
{
    Json m = Json::object();
    m.set("schema", manifestSchema);
    m.set("campaign", campaign_);
    m.set("title", title_);
    m.set("fingerprint", fingerprint_);
    Json jobs = Json::array();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const JobSpec &j = jobs_[i];
        Json e = Json::object();
        e.set("index", j.index);
        e.set("workload", j.workload);
        e.set("config", j.label);
        e.set("file", jobFileName(j.index));
        const auto fit = failed_.find(i);
        if (done_[i]) {
            e.set("status", "done");
        } else if (fit != failed_.end()) {
            e.set("status", "failed");
            Json err = Json::object();
            err.set("kind", fit->second.kind);
            err.set("message", fit->second.message);
            e.set("error", std::move(err));
        } else {
            e.set("status", "pending");
        }
        jobs.push(std::move(e));
    }
    m.set("jobs", std::move(jobs));
    writeFileAtomicDurable(manifestPath(), sealedJsonText(m));
}

void
RunDir::flushManifest() const
{
    if (enabled())
        writeManifest();
}

std::map<std::size_t, SimResult>
RunDir::loadCompleted(const std::vector<JobSpec> &jobs)
{
    std::map<std::size_t, SimResult> out;
    if (!enabled())
        return out;
    for (const JobSpec &j : jobs) {
        const std::string path = jobFilePath(j.index);
        if (!std::filesystem::exists(path))
            continue;
        std::string why;
        try {
            const Json f = Json::parse(readFileOrThrow(path));
            if (!verifySealedJson(f)) {
                why = "CRC seal mismatch (torn write or bit flip)";
            } else if (f.at("fingerprint").asString() !=
                       fingerprint_) {
                why = "foreign fingerprint";
            } else if (f.at("index").asUint() != j.index ||
                       f.at("workload").asString() != j.workload ||
                       f.at("config").asString() != j.label) {
                why = "job identity mismatch";
            } else {
                out.emplace(j.index,
                            simResultFromJson(f.at("result")));
                continue;
            }
        } catch (const std::exception &e) {
            why = std::string("unreadable: ") + e.what();
        }
        // Invalid artifact: quarantine it and let the job re-run.
        quarantineFile(path, why);
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

    // Crash here = the job file is durable but the manifest still
    // says "pending"; resume rebuilds statuses from the job files.
    fault::hit("exp.mid_record");

    done_[job.index] = true;
    failed_.erase(job.index);
    writeManifest();

    // Crash here = the process dies with the job fully recorded; a
    // resumed campaign must skip it.
    fault::hit("exp.record");
}

void
RunDir::markDone(std::size_t index)
{
    if (!enabled())
        return;
    done_[index] = true;
    failed_.erase(index);
}

void
RunDir::markFailed(const JobFailure &failure)
{
    if (!enabled())
        return;
    if (failure.index < done_.size() && !done_[failure.index])
        failed_[failure.index] = failure;
}

LoadedRun
loadRunDir(const std::string &path)
{
    LoadedRun run;
    const Json m =
        Json::parse(readFileOrThrow(path + "/manifest.json"));
    requireSchema(m, path);
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
        const std::string file =
            path + "/" + e.at("file").asString();
        try {
            const Json f = Json::parse(readFileOrThrow(file));
            if (verifySealedJson(f) &&
                f.at("fingerprint").asString() == run.fingerprint) {
                run.results.emplace(
                    j.index, simResultFromJson(f.at("result")));
            }
        } catch (const std::exception &) {
            // Incomplete job: reported as missing.
        }
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

    Json m;
    try {
        m = Json::parse(readFileOrThrow(path + "/manifest.json"));
    } catch (const std::exception &e) {
        report.issues.push_back(
            {"manifest.json",
             std::string("unreadable: ") + e.what()});
        return report;
    }
    if (!verifySealedJson(m)) {
        report.issues.push_back(
            {"manifest.json", "CRC seal mismatch"});
        return report;
    }
    report.manifestOk = true;
    try {
        requireSchema(m, path);
    } catch (const SchemaMismatch &e) {
        report.schemaMismatch = true;
        report.issues.push_back({"manifest.json", e.what()});
    }
    report.campaign = m.at("campaign").asString();
    report.fingerprint = m.at("fingerprint").asString();

    for (const Json &e : m.at("jobs").items()) {
        ++report.jobsTotal;
        const std::string status = e.at("status").asString();
        const std::string file = e.at("file").asString();
        if (status == "failed")
            ++report.jobsFailed;
        else if (status == "pending")
            ++report.jobsPending;
        else
            ++report.jobsDone;
        if (status != "done") {
            // A pending/failed job may legitimately have no file.
            continue;
        }
        try {
            const Json f =
                Json::parse(readFileOrThrow(path + "/" + file));
            if (!verifySealedJson(f)) {
                report.issues.push_back(
                    {file, "CRC seal mismatch"});
            } else if (f.at("fingerprint").asString() !=
                       report.fingerprint) {
                report.issues.push_back(
                    {file, "foreign fingerprint"});
            } else {
                ++report.jobFilesOk;
            }
        } catch (const std::exception &ex) {
            report.issues.push_back(
                {file, std::string("unreadable: ") + ex.what()});
        }
    }
    return report;
}

} // namespace cgp::exp
