/**
 * @file
 * Resumable run directory for a campaign, hardened against crashes
 * and on-disk corruption.
 *
 * Layout:
 *
 *     <dir>/manifest.json   campaign identity + per-job status (sealed)
 *     <dir>/job-0000.json   one completed job: spec echo + SimResult
 *     <dir>/quarantine/     artifacts that failed integrity checks
 *     <dir>/.lock           pid of the process that owns the dir
 *
 * The per-job files are the source of truth for completion — a job
 * counts as done iff its file exists, parses, passes its CRC32 seal
 * (exp/integrity), and carries the campaign fingerprint and matching
 * job key.  The manifest is a human- and tool-friendly summary that
 * is rewritten (durable tmp+rename, see writeFileAtomicDurable)
 * after every completion; a crash between a job file and its
 * manifest update therefore loses nothing, because resume rescans
 * the job files and rebuilds the statuses.
 *
 * Integrity: every artifact is sealed with a "crc32" member.  On
 * open, orphaned *.tmp files from a killed writer are swept, and any
 * artifact that is truncated, bit-flipped, unparsable, or from a
 * different spec is moved to <dir>/quarantine/ — never deleted, so a
 * human can autopsy it — and its job transparently re-runs.  A
 * manifest that fails its integrity check is quarantined and rebuilt
 * from the job files; a *valid* manifest with a different
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
 * lost), "exp.mid_record" (job file durable, manifest stale: resume
 * rebuilds), and "exp.record" (after job file + manifest: the job
 * survives) let the fault injector simulate a kill on every side of
 * the durability boundary; "exp.artifact_write" (inside the write
 * path) can additionally tear the artifact being written.
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
     * Scan job files and return results of every validly completed
     * job, keyed by job index.  Files that are unparsable, fail
     * their CRC seal, or belong to a different spec are quarantined
     * (their jobs re-run); missing files are simply pending.
     */
    std::map<std::size_t, SimResult>
    loadCompleted(const std::vector<JobSpec> &jobs);

    /**
     * Persist one completed job: write its sealed file (durable
     * atomic rename), then rewrite the manifest with the job marked
     * "done".
     */
    void recordResult(const JobSpec &job, const SimResult &result);

    /** Mark @p index done without rewriting its file (resume). */
    void markDone(std::size_t index);

    /** Record a terminal failure; the manifest entry becomes
     *  status "failed" with the kind/message attached. */
    void markFailed(const JobFailure &failure);

    /** Rewrite the manifest to match the in-memory statuses. */
    void flushManifest() const;

    /** Artifacts quarantined so far by this RunDir. */
    std::size_t quarantined() const { return quarantined_; }

    /** Orphaned *.tmp files swept by prepare(). */
    std::size_t sweptTmp() const { return sweptTmp_; }

    static std::string jobFileName(std::size_t index);

    std::string manifestPath() const;
    std::string jobFilePath(std::size_t index) const;
    std::string quarantineDir() const;

  private:
    void writeManifest() const;
    void acquireLock();
    void releaseLock();
    void sweepTmpFiles();
    /** Move @p file into quarantine/ (never deletes data). */
    void quarantineFile(const std::string &file,
                        const std::string &why);

    std::string path_;
    std::string fingerprint_;
    std::string campaign_;
    std::string title_;
    std::vector<JobSpec> jobs_;
    std::vector<bool> done_;
    std::map<std::size_t, JobFailure> failed_;
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
    /** Results by job index; missing entries were never completed. */
    std::map<std::size_t, SimResult> results;
    /** Jobs the manifest records as terminally failed. */
    std::map<std::size_t, JobFailure> failures;
};

/**
 * Read a run directory for reporting (`cgpbench report`).
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
    std::size_t jobsDone = 0;    ///< manifest status "done"
    std::size_t jobsFailed = 0;  ///< manifest status "failed"
    std::size_t jobsPending = 0; ///< manifest status "pending"
    std::size_t jobFilesOk = 0;  ///< job files passing all checks
    bool schemaMismatch = false; ///< manifest of another schema
    std::vector<VerifyIssue> issues;
    std::vector<std::string> quarantineEntries;

    bool ok() const { return manifestOk && issues.empty(); }
};

/**
 * Audit @p path without modifying it: manifest parse + seal +
 * schema, every done job's file parse + seal + fingerprint, orphaned
 * tmp files, quarantine inventory.  Backs `cgpbench verify`.
 */
VerifyReport verifyRunDir(const std::string &path);

} // namespace cgp::exp

#endif // CGP_EXP_RUNDIR_HH
