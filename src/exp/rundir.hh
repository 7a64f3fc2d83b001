/**
 * @file
 * Resumable run directory for a campaign, hardened against crashes
 * and on-disk corruption.
 *
 * Layout:
 *
 *     <dir>/manifest.json   campaign identity, job list, last run's
 *                           failures (sealed)
 *     <dir>/job-0000.json   one completed job: spec echo + SimResult
 *     <dir>/quarantine/     artifacts that failed integrity checks
 *     <dir>/.lock           pid of the process that owns the dir
 *
 * The job files are the only record of completion: a job is done iff
 * its file exists, parses, passes its CRC32 seal (exp/integrity), and
 * carries the campaign fingerprint and the job's own index, workload
 * and config.  One reader makes that check, so resume
 * (RunDir::loadCompleted), report (loadRunDir) and verify
 * (verifyRunDir) accept and reject exactly the same files.  The
 * manifest holds what the job files cannot: the run's identity, its
 * job list, and an "error" object on each job that failed in the
 * last run.  prepare() writes it, and it is written again only when
 * the run records failures; recording a result writes the job file
 * (durable tmp+rename, see writeFileAtomicDurable) and nothing else.
 *
 * Integrity: every artifact is sealed with a "crc32" member.  On
 * open, orphaned *.tmp files from a killed writer are swept, and any
 * artifact that is truncated, bit-flipped, unparsable, or from a
 * different spec or job is moved to <dir>/quarantine/ (see
 * quarantineFile) so a human can autopsy it, and its job
 * transparently re-runs.  A manifest that fails its integrity check
 * is quarantined and rewritten; a *valid* manifest with a different
 * fingerprint still throws, because that is a user error (two
 * campaigns sharing a directory), not corruption.
 *
 * Locking: prepare() takes <dir>/.lock.  A live foreign owner makes
 * prepare() throw; a lock left by a dead process is stolen with a
 * warning.  The lock is released by the destructor.
 *
 * Everything written here is deterministic: no timestamps, no thread
 * counts, fixed member order.  Running the same spec at any
 * parallelism yields byte-identical manifests and job files — the
 * property the determinism tests pin down.
 *
 * Crash points "exp.pre_record" (before the job file: the job is
 * lost) and "exp.record" (after the job file: the job survives) let
 * the fault injector simulate a kill on both sides of the durability
 * boundary; "exp.artifact_write" (inside the write path) can
 * additionally tear the artifact being written.
 *
 * Not internally synchronized: the engine serializes record calls.
 */

#ifndef CGP_EXP_RUNDIR_HH
#define CGP_EXP_RUNDIR_HH

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/campaign.hh"
#include "exp/scheduler.hh"
#include "harness/simulator.hh"

namespace cgp::exp
{

/**
 * A run directory whose manifest has another schema (or none): its
 * keys mean something else to this build, so it can be neither
 * resumed nor reported, only started again with --fresh.
 */
class SchemaMismatch : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A run directory of this schema whose fingerprint is not the run's:
 * it holds another campaign, another spec, or workloads built at
 * another scale, so resuming it would mix their results (and replay
 * its warm checkpoints over other traces); it can only be started
 * again with --fresh.
 */
class ForeignRunDir : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

class RunDir
{
  public:
    /** @p path empty disables persistence (all calls no-op). */
    explicit RunDir(std::string path);
    ~RunDir();

    RunDir(const RunDir &) = delete;
    RunDir &operator=(const RunDir &) = delete;

    bool enabled() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

    /**
     * Create the directory, take its lock, sweep orphaned *.tmp
     * files, quarantine a corrupt manifest, and install the job
     * list.  An existing *valid* manifest must carry this build's
     * schema and the same fingerprint.
     * @throws SchemaMismatch if the directory holds another schema,
     * ForeignRunDir if it holds another fingerprint (another
     * campaign, spec or workload scale), std::runtime_error if it is
     * locked by a live process.
     */
    void prepare(const CampaignSpec &spec,
                 const std::vector<JobSpec> &jobs,
                 const std::string &fingerprint);

    /**
     * Read every job's file and return the results of the usable
     * ones, keyed by job index.  Files that are unparsable, fail
     * their CRC seal, or hold another spec or job are quarantined
     * (their jobs re-run); missing files are simply pending.
     */
    std::map<std::size_t, SimResult> loadCompleted();

    /** Persist one completed job: its sealed file, written with a
     *  durable atomic rename. */
    void recordResult(const JobSpec &job, const SimResult &result);

    /** Rewrite the manifest with the run's terminal @p failures
     *  attached to their jobs; no write when there are none. */
    void recordFailures(const std::vector<JobFailure> &failures) const;

    /** Artifacts quarantined so far by this RunDir. */
    std::size_t quarantined() const { return quarantined_; }

    /** Orphaned *.tmp files swept by prepare(). */
    std::size_t sweptTmp() const { return sweptTmp_; }

    static std::string jobFileName(std::size_t index);

    std::string manifestPath() const;
    std::string jobFilePath(std::size_t index) const;
    std::string quarantineDir() const;

  private:
    void writeManifest(const std::vector<JobFailure> &failures) const;
    void acquireLock();
    void releaseLock();
    void sweepTmpFiles();
    void quarantine(const std::string &file, const std::string &why);

    std::string path_;
    std::string fingerprint_;
    std::string campaign_;
    std::string title_;
    std::vector<JobSpec> jobs_;
    std::size_t quarantined_ = 0;
    std::size_t sweptTmp_ = 0;
    bool holdsLock_ = false;
};

/** A run directory read back without re-running anything. */
struct LoadedRun
{
    std::string campaign;
    std::string title;
    std::string fingerprint;
    /** Jobs in manifest order (index, workload, label). */
    std::vector<JobSpec> jobs;
    /** Results by job index, from the usable job files. */
    std::map<std::size_t, SimResult> results;
    /** Job files present but unusable, with the reason, by index. */
    std::map<std::size_t, std::string> rejected;
    /** Jobs the manifest records as terminally failed. */
    std::map<std::size_t, JobFailure> failures;
};

/**
 * Read a run directory for reporting (`cgpbench report`); a job whose
 * file is missing or unusable has no result.
 * @throws SchemaMismatch if the manifest is of another schema,
 * std::runtime_error if it is missing or corrupt.
 */
LoadedRun loadRunDir(const std::string &path);

/** One problem found by verifyRunDir. */
struct VerifyIssue
{
    std::string file;    ///< artifact (relative to the run dir)
    std::string problem; ///< what is wrong with it
};

/** Non-destructive integrity audit of a run directory. */
struct VerifyReport
{
    bool manifestOk = false;
    std::string campaign;
    std::string fingerprint;
    std::size_t jobsTotal = 0;
    std::size_t jobsDone = 0;    ///< jobs with a usable job file
    std::size_t jobsFailed = 0;  ///< not done, manifest "error"
    std::size_t jobsPending = 0; ///< neither done nor failed
    std::size_t jobFilesOk = 0;  ///< usable job files (= jobsDone)
    bool schemaMismatch = false; ///< manifest of another schema
    std::vector<VerifyIssue> issues;
    std::vector<std::string> quarantineEntries;

    bool ok() const { return manifestOk && issues.empty(); }
};

/**
 * Audit @p path without modifying it: the manifest and every job
 * file present, read as loadRunDir reads them (each unusable file is
 * an issue), orphaned tmp files, quarantine inventory.  Backs
 * `cgpbench verify`.
 */
VerifyReport verifyRunDir(const std::string &path);

} // namespace cgp::exp

#endif // CGP_EXP_RUNDIR_HH
